(** LRU block cache bookkeeping.

    Tracks which block numbers are resident and which are dirty; the
    DISCPROCESS consults it to decide whether a logical access costs a
    physical one, and learns which dirty block a capacity eviction pushes
    out. The cached contents themselves live in the store above — this
    module is pure replacement policy and accounting, which is all the
    experiments need ("a cache buffering scheme designed to keep the most
    recently referenced blocks of data in main memory"). *)

type t

type block = int

val create : capacity:int -> t

type eviction = { block : block; dirty : bool }

val touch : t -> block -> [ `Hit | `Miss of eviction option ]
(** Reference a block: on a hit it becomes most-recently-used; on a miss it
    is brought in, possibly evicting the least-recently-used block (returned
    so the caller can write it back if dirty). *)

val mark_dirty : t -> block -> unit
(** Requires the block to be resident. *)

val clean : t -> block -> unit

val is_dirty : t -> block -> bool

val dirty_blocks : t -> block list

val drop : t -> block -> unit
(** Remove a block without write-back (file deletion). *)

val clear : t -> unit
(** Lose everything (processor pair double failure). *)

val hits : t -> int

val misses : t -> int
