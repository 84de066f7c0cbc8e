(** Tables keyed by ids.

    Dense small ids (node, pid serial, block number) index a plain array,
    grown by doubling: a lookup is a bounds check and a load. Other keys
    take a typed hashtable: equality without the polymorphic compare, and
    the same hash as [Hashtbl.hash], so buckets and fold order match the
    generic table's. *)

val get : 'a array -> int -> 'a -> 'a
(** [get a i default] is [a.(i)], or [default] when [i] is outside [a]. *)

val cover : 'a array -> int -> 'a -> 'a array
(** [cover a i fill] is [a] when [i] is an index of [a]; otherwise a copy,
    at least twice as long, that has index [i], its new cells [fill]. *)

module Int : Hashtbl.S with type key = int

module String : Hashtbl.S with type key = string
