open Tandem_sim

(* A parked receive. A waiter is queued until it is woken, and woken once:
   with [message] set by [enqueue], or left [None] by [flush_dead]. *)
type waiter = {
  filter : Message.t -> bool;
  fiber : Fiber.t;
  mutable message : Message.t option;
}

type t = {
  queue : Message.t Queue.t; (* oldest first *)
  waiters : waiter Queue.t; (* oldest first *)
}

let create () = { queue = Queue.create (); waiters = Queue.create () }

let accept_all _ = true

(* Filtered removal from a [Queue.t] is a full rotation: pop every element
   once, re-adding all but the match — n pops and n-1 adds leave the
   survivors in their original order. The unfiltered common case (and any
   front-of-queue match) short-circuits to a single O(1) pop. *)

let hand_over waiter message =
  waiter.message <- Some message;
  Fiber.wake waiter.fiber

let enqueue t message =
  match Queue.peek_opt t.waiters with
  | None -> Queue.add message t.queue
  | Some front when front.filter message ->
      (* Fast path — the oldest waiter takes the message: one pop, no
         rotation. This is the steady state for server classes, where
         every parked server uses the same filter. *)
      ignore (Queue.pop t.waiters);
      hand_over front message
  | Some _ ->
      (* Selective receives in front: full rotation (pop every waiter
         once, re-add all but the chosen) — the only filtered removal
         from a Queue.t that preserves waiter order. *)
      let passes = Queue.length t.waiters in
      let chosen = ref None in
      for _ = 1 to passes do
        let waiter = Queue.pop t.waiters in
        if Option.is_none !chosen && waiter.filter message then
          chosen := Some waiter
        else Queue.add waiter t.waiters
      done;
      (match !chosen with
      | Some waiter -> hand_over waiter message
      | None -> Queue.add message t.queue)

let take_queued filter t =
  match Queue.peek_opt t.queue with
  | None -> None
  | Some front when filter front ->
      ignore (Queue.pop t.queue);
      Some front
  | Some _ ->
      let passes = Queue.length t.queue in
      let found = ref None in
      for _ = 1 to passes do
        let message = Queue.pop t.queue in
        if Option.is_none !found && filter message then found := Some message
        else Queue.add message t.queue
      done;
      !found

let receive_opt ?(filter = accept_all) t = take_queued filter t

let receive ?(filter = accept_all) t =
  match take_queued filter t with
  | Some message -> message
  | None -> (
      let waiter = { filter; fiber = Fiber.self (); message = None } in
      Queue.add waiter t.waiters;
      Fiber.park ();
      match waiter.message with
      | Some message -> message
      | None -> raise Fiber.Killed)

let pending t = Queue.length t.queue

let flush_dead t =
  let waiters = List.of_seq (Queue.to_seq t.waiters) in
  Queue.clear t.waiters;
  Queue.clear t.queue;
  List.iter (fun waiter -> Fiber.wake waiter.fiber) waiters
