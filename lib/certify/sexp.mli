(** Minimal S-expressions: the certificate format's lexical layer and the
    daemon's wire format.

    Atoms print bare when they contain only symbol-safe characters and are
    double-quoted (with [\\]-escapes) otherwise; [;] starts a comment to end
    of line.  These rules live here once: {!parse_one} builds trees through
    the {!reader} below, and the certificate decoder reads its text through
    the same reader without building any.  Part of the trusted checker: no
    dependencies. *)

type t = Atom of string | List of t list

val to_string : t -> string

(** [add_atom buf s] appends [s] as {!to_string} prints [Atom s]. *)
val add_atom : Buffer.t -> string -> unit

(** [parse_one s] expects exactly one toplevel s-expression; errors carry
    [line:col] positions. *)
val parse_one : string -> (t, string) result

(** {2 Reading without a tree} *)

(** A cursor over the text. *)
type reader

(** The next token: a list opens or closes, an atom (bare or quoted), or
    the text ends. *)
type token = Open | Close | Word | End

(** [peek r] skips blanks and comments and names the token at the cursor
    without consuming it.  It never returns [End] inside a list: text that
    ends there is a parse error at the innermost open parenthesis. *)
val peek : reader -> token

(** Consume the [Open] or [Close] that {!peek} returned. *)
val open_list : reader -> unit

val close_list : reader -> unit

(** [atom r] consumes the [Word] that {!peek} returned and returns it,
    unquoted. *)
val atom : reader -> string

(** [int r] consumes the [Word] that {!peek} returned if
    [int_of_string_opt] reads it as an integer (plain decimals are read in
    place), and returns [None], consuming nothing, otherwise. *)
val int : reader -> int option

(** [read_one s f] runs [f] on a reader at the start of [s]; [f] reads one
    toplevel expression.  The result is [f]'s unless [s] is not exactly one
    well-formed s-expression, in which case it is the error {!parse_one}
    would give: the first lexical error ([parse error at LINE:COL: ...]),
    then the count. *)
val read_one : string -> (reader -> ('a, string) result) -> ('a, string) result
