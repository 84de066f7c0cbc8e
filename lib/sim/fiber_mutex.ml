type t = {
  mutable held : bool;
  queue : Fiber.t Queue.t; (* parked waiters, oldest first *)
}

let create () = { held = false; queue = Queue.create () }

let rec lock t =
  if not t.held then t.held <- true
  else begin
    Queue.add (Fiber.self ()) t.queue;
    match Fiber.park () with
    | () -> ()
    | exception e ->
        (* Ownership was handed to this fiber as it was being killed: pass
           it on before propagating. *)
        unlock t;
        raise e
  end

and unlock t =
  if not t.held then invalid_arg "Fiber_mutex.unlock: not locked";
  match Queue.take_opt t.queue with
  | None -> t.held <- false
  | Some waiter ->
      (* Ownership passes directly to the next waiter. *)
      Fiber.wake waiter

let with_lock t f =
  lock t;
  match f () with
  | value ->
      unlock t;
      value
  | exception e ->
      unlock t;
      raise e

let locked t = t.held
