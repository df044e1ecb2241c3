(** A generic Dolev-Yao intruder knowledge engine (Section 4.1 of the
    paper, after Dolev and Yao 1983).

    The engine is parametric in the message algebra.  Knowledge is a set of
    items closed under {e analysis} (tearing items apart: projecting tuple
    fields, decrypting with known keys) and queried under {e synthesis}
    (rebuilding: an item is derivable if it is known outright or if all the
    components it can be built from are derivable).

    The symbolic counterpart of this engine is the family of gleaning
    collections in {!Tls.Data}; this concrete version drives the explicit-
    state model checker. *)

module type ALGEBRA = sig
  type t

  val compare : t -> t -> int

  (** [analyze ~knows item] lists the items extractable from [item] given
      the current knowledge — e.g. the fields of a pair, or the plaintext
      of a ciphertext when [knows] its decryption key.  Called repeatedly
      until fixpoint, so it may answer conservatively based on the current
      [knows].  It must be pure and monotone in [knows]: a larger set
      never yields fewer items.  The closure relies on both: an item whose
      analysis asked only about known items is never analyzed again, and
      one that asked about an unknown item is analyzed again each time
      the set grows. *)
  val analyze : knows:(t -> bool) -> t -> t list

  (** [components item] describes how [item] could be constructed by the
      intruder: [None] if it is atomic (only derivable if known), [Some
      parts] if deriving every part suffices to build [item] (e.g. a hash
      from its preimages, a ciphertext from key and body). *)
  val components : t -> t list option
end

module Make (A : ALGEBRA) : sig
  type knowledge

  val empty : knowledge

  (** [learn k items] is the least set closed under analysis that holds
      [k] and [items].  It is incremental: [k] is already closed, so only
      the items new to it, and the known items whose analysis waited on an
      unknown one (such as a ciphertext whose key is unknown), are
      analyzed.  Learning the same items in any number of calls gives the
      same set. *)
  val learn : knowledge -> A.t list -> knowledge

  (** [knows k item] — is [item] literally in the closed set? *)
  val knows : knowledge -> A.t -> bool

  (** [derivable k item] — can the intruder synthesize [item]? *)
  val derivable : knowledge -> A.t -> bool

  (** [items k] lists the closed knowledge set. *)
  val items : knowledge -> A.t list

  val size : knowledge -> int

  (** [compare] is a total order usable for state hashing. *)
  val compare : knowledge -> knowledge -> int
end
