(** Linter diagnostics: one finding of one checker about one module.

    Diagnostics carry a severity ([Error] findings make the lint gate and
    the CI job fail), the emitting checker's name, a stable short [code]
    for filtering, the module name and an optional source position (absent
    for generated specs). *)

type severity = Error | Warning | Info

val severity_name : severity -> string

(** [Error] < [Warning] < [Info] — sorting puts errors first. *)
val severity_rank : severity -> int

type t = {
  severity : severity;
  checker : string;  (** "termination", "confluence", … *)
  code : string;  (** stable slug, e.g. "unoriented-rule" *)
  spec : string;  (** module name *)
  pos : (int * int) option;  (** 1-based line/col of the culprit declaration *)
  message : string;
}

val make :
  ?pos:int * int ->
  severity:severity ->
  checker:string ->
  code:string ->
  spec:string ->
  string ->
  t

(** Severity first, then module, checker, position, message. *)
val compare : t -> t -> int

(** [count sev ds] — how many diagnostics of severity [sev]. *)
val count : severity -> t list -> int

val pp : Format.formatter -> t -> unit

(** One JSON object, e.g.
    [{"severity": "error", "checker": "termination", ...}]. *)
val to_json : t -> string
