(** Per-process message queue with fiber-blocking receive.

    A receive may carry a filter; queued messages that do not match stay
    queued for a later, differently-filtered receive (selective receive, as
    used by processes that interleave several conversations). *)

type t

val create : unit -> t

val enqueue : t -> Message.t -> unit
(** Deliver a message: hand it to the first parked waiter whose filter
    accepts it, else queue it. *)

val receive : ?filter:(Message.t -> bool) -> t -> Message.t
(** Return the first queued matching message, or park the calling fiber until
    one arrives. Must run inside a fiber. *)

val receive_opt : ?filter:(Message.t -> bool) -> t -> Message.t option
(** Non-blocking variant. *)

val pending : t -> int

val flush_dead : t -> unit
(** Process death: wake every parked receiver, whose [receive] then raises
    [Fiber.Killed], and discard queued messages. *)
