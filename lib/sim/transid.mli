(** Transaction identifiers.

    A transid is a sequence number, qualified by the processor in which
    BEGIN-TRANSACTION was called, qualified by the network node that
    originated the transaction — its *home* node. It identifies the
    transaction's update group network-wide.

    A transid is an immediate integer: home, cpu and seq packed so that
    integer order is (home, cpu, seq) order. It is what every request, lock,
    audit image and TMP message carries; the ["home.cpu.seq"] string form
    is only for display and serialization. *)

type t [@@immediate]

val make : home:int -> cpu:int -> seq:int -> t
(** Raises [Invalid_argument] when a component is negative or too large:
    [cpu] must be below 16 and [seq] below [2^40]. *)

val home : t -> int

val seq : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int
(** Lexicographic on (home, cpu, seq). *)

val to_string : t -> string
(** ["home.cpu.seq"], for display only. *)

val text_length : t -> int
(** [String.length (to_string t)], without building the string. *)

val of_string : string -> t option
(** Parse the {!to_string} form; [None] for anything else. *)

val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t

module Set : Set.S with type elt = t
