type t = Atom of string | List of t list

(* ------------------------------------------------------------------ *)
(* Printing *)

let bare_re c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  (* [;] is deliberately absent: it starts a comment, so an atom containing
     it must print quoted to round-trip. *)
  | '-' | '_' | '.' | ':' | '/' | '#' | '+' | '*' | '=' | '<' | '>' | '!'
  | '?' | '@' | '$' | '%' | '^' | '&' | '~' | '\'' | ',' | '[' | ']' | '{'
  | '}' | '|' ->
    true
  | _ -> false

let add_atom buf s =
  if s <> "" && String.for_all bare_re s then Buffer.add_string buf s
  else begin
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  end

let rec to_buffer buf = function
  | Atom s -> add_atom buf s
  | List xs ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ' ';
        to_buffer buf x)
      xs;
    Buffer.add_char buf ')'

let to_string x =
  let buf = Buffer.create 1024 in
  to_buffer buf x;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reading *)

(* A cursor over the text.  [opens] holds the offsets of the parentheses
   still open at [pos], innermost first, so that text ending inside a list
   is reported at the innermost one.  Errors carry a byte offset; the
   line and column are only worked out when one is reported.  Kept
   deliberately small: this is the trusted checker's input path. *)
type reader = { text : string; mutable pos : int; mutable opens : int list }
type token = Open | Close | Word | End

exception Parse_error of int * string

let fail off msg = raise (Parse_error (off, msg))

let rec peek r =
  if r.pos >= String.length r.text then
    match r.opens with [] -> End | o :: _ -> fail o "unclosed parenthesis"
  else
    match r.text.[r.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
      r.pos <- r.pos + 1;
      peek r
    | ';' ->
      (* comment to end of line *)
      r.pos <-
        (match String.index_from_opt r.text r.pos '\n' with
        | Some i -> i
        | None -> String.length r.text);
      peek r
    | '(' -> Open
    | ')' -> ( match r.opens with [] -> fail r.pos "unexpected ')'" | _ -> Close)
    | '"' -> Word
    | c -> if bare_re c then Word else fail r.pos (Printf.sprintf "unexpected character %C" c)

let open_list r =
  r.opens <- r.pos :: r.opens;
  r.pos <- r.pos + 1

let close_list r =
  r.opens <- (match r.opens with _ :: o -> o | [] -> []);
  r.pos <- r.pos + 1

let atom r =
  let s = r.text and start = r.pos in
  let n = String.length s in
  if s.[start] <> '"' then begin
    let i = ref start in
    while !i < n && bare_re s.[!i] do
      incr i
    done;
    r.pos <- !i;
    String.sub s start (!i - start)
  end
  else begin
    let buf = Buffer.create 64 in
    (* [i] starts a run of characters that stand for themselves, copied
       in one piece up to the next quote or escape *)
    let rec go i =
      let j = ref i in
      while !j < n && s.[!j] <> '"' && s.[!j] <> '\\' do
        incr j
      done;
      if !j >= n then fail start "unterminated string";
      Buffer.add_substring buf s i (!j - i);
      if s.[!j] = '"' then begin
        r.pos <- !j + 1;
        Buffer.contents buf
      end
      else begin
        if !j + 1 >= n then fail start "unterminated escape";
        Buffer.add_char buf (match s.[!j + 1] with 'n' -> '\n' | 't' -> '\t' | c -> c);
        go (!j + 2)
      end
    in
    go (start + 1)
  end

(* Bare decimals of up to 18 digits cannot overflow and are read in place;
   any other spelling goes through [int_of_string_opt]. *)
let int r =
  let s = r.text and start = r.pos in
  let n = String.length s in
  let d0 = if s.[start] = '-' then start + 1 else start in
  let i = ref d0 and v = ref 0 in
  while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
    v := (!v * 10) + Char.code s.[!i] - 48;
    incr i
  done;
  if !i > d0 && !i - d0 <= 18 && (!i = n || not (bare_re s.[!i])) then begin
    r.pos <- !i;
    Some (if d0 > start then - !v else !v)
  end
  else
    match int_of_string_opt (atom r) with
    | Some _ as v -> v
    | None ->
      r.pos <- start;
      None

let rec read r = function
  | Open ->
    open_list r;
    let rec items acc =
      match peek r with
      | Close ->
        close_list r;
        List (List.rev acc)
      | tok -> items (read r tok :: acc)
    in
    items []
  | _ -> Atom (atom r)

let rec skip r = function
  | Open ->
    open_list r;
    let rec items () =
      match peek r with
      | Close -> close_list r
      | tok ->
        skip r tok;
        items ()
    in
    items ()
  | _ -> ignore (atom r)

let message s off msg =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to min off (String.length s) - 1 do
    if s.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  Printf.sprintf "parse error at %d:%d: %s" !line (off - !bol + 1) msg

let read_one s f =
  let r = { text = s; pos = 0; opens = [] } in
  match f r with
  | Ok _ as ok when (try peek r = End with Parse_error _ -> false) -> ok
  | res -> (
    (* Not one well-formed expression, or [f] refused it: the first
       lexical error wins, then a wrong count, then [f]'s verdict. *)
    let r = { text = s; pos = 0; opens = [] } in
    let rec count n =
      match peek r with
      | End -> n
      | tok ->
        skip r tok;
        count (n + 1)
    in
    match count 0 with
    | 1 -> res
    | n -> Error (Printf.sprintf "expected one s-expression, got %d" n)
    | exception Parse_error (off, msg) -> Error (message s off msg))
  | exception Parse_error (off, msg) -> Error (message s off msg)

let parse_one s =
  read_one s (fun r -> match peek r with End -> Error "empty" | tok -> Ok (read r tok))
