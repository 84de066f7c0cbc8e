(** Lightweight cooperative fibers over OCaml effects.

    All sequential protocol code in the simulation — terminal programs,
    servers, commit coordinators, the suspense monitor — is written in direct
    style inside a fiber. Every wait is one {!park} after the fiber leaves
    itself where its waker will find it: a timer, a mailbox waiter list, an
    RPC correlation table, a lock or mutex queue, a force-wish queue, a
    terminal's input slot or a {!join}. The waker stores whatever the fiber
    should learn (a grant, a reply) before it {!wake}s the fiber, which then
    continues from the suspension point at the then-current simulated time.
    The continuation lives in the fiber, so a park allocates no closure.

    Killing models processor failure: a killed fiber never executes another
    instruction after its current suspension point. Kill is lazy — the
    next wake-up discontinues the continuation with {!Killed} (releasing
    resources) instead of resuming it. Parking sites that must wake their
    fibers promptly on death (mailboxes) wake them at once. *)

type t

exception Killed
(** Raised inside a fiber that is resumed after being killed; normally
    invisible to fiber code (the runner swallows it). *)

val spawn : ?engine:Engine.t -> ?name:string -> (unit -> unit) -> t
(** [spawn body] starts a fiber executing [body] immediately (until its first
    suspension). An exception escaping [body] other than {!Killed} is
    re-raised, with its original backtrace, to the scheduler — simulations
    are expected to be exception-free, so this aborts the run loudly.

    [engine] scopes the fiber's {!id} to that engine's simulation (each
    engine hands out the dense sequence 1, 2, 3, …). Without it, ids come
    from a domain-local counter — still race-free across domains, but
    interleaved between simulations sharing a domain, so long-lived
    components should pass their engine. *)

val self : unit -> t
(** The calling fiber. Must be called from inside a fiber. *)

val park : unit -> unit
(** Suspend the calling fiber until {!wake}. Raises {!Killed} instead of
    returning if the fiber was killed meanwhile. A parking site records
    [self ()] where its waker will find it before calling [park]. *)

val wake : t -> unit
(** Resume a fiber suspended in {!park} (or {!sleep}) now, inside the
    caller. A no-op if the fiber is not parked. Each park must have exactly
    one waker: wake-ups are not tied to a particular park. *)

val waker : t -> unit -> unit
(** [waker t] is [fun () -> wake t], made on first use and then kept, so
    arming a timer on a fiber allocates no closure. *)

val kill : t -> unit
(** Mark the fiber dead. Idempotent. *)

val is_alive : t -> bool

val name : t -> string

val id : t -> int

val sleep : Engine.t -> Sim_time.span -> unit
(** Suspend the calling fiber for a simulated duration. *)

type join
(** A fork/join countdown: [join n] expects [n] children to {!arrive} once
    each; one parent fiber {!await}s them. *)

val join : int -> join

val arrive : join -> unit
(** The last arrival wakes the parent, inside the arriving fiber. *)

val await : join -> unit
(** Park until every child has arrived (at once if all have). Raises
    {!Killed} at the wake if the parent was killed meanwhile. *)

val parallel_iter :
  ?name:string -> workers:int -> ('a -> unit) -> 'a list -> unit
(** [parallel_iter ~workers f items] runs [f] over [items] on a pool of at
    most [workers] fibers draining one shared FIFO queue, and returns when
    every item is done. Must be called from inside a fiber (the caller parks
    until the pool drains). Scheduling is deterministic: workers are spawned
    in order and take items in queue order, so a given engine state always
    yields the same interleaving. If some [f] raises, the queue still
    drains, and the first exception (in completion order) is re-raised to
    the caller at the join. *)
