open Effect.Deep

type t = {
  id : int;
  name : string;
  mutable killed : bool;
  mutable finished : bool;
  mutable parked : (unit, unit) continuation option;
  mutable waker : unit -> unit; (* [no_waker] until first asked for *)
}

exception Killed

(* A parked fiber keeps its own continuation, and a parking site keeps the
   fiber, not a closure: a park allocates only the runtime's continuation
   and the [Some] around it. *)
type _ Effect.t += Self : t Effect.t | Park : unit Effect.t

(* Fiber-id allocation must not cross simulations: a module-level ref
   would interleave ids between two engines (and race between two
   domains). Spawns that carry their engine draw from its counter; the
   rare engine-less spawns fall back to a domain-local counter, which is
   still race-free because each domain owns its own cell. *)
let domain_next_id = Domain.DLS.new_key (fun () -> ref 0)

let alloc_id = function
  | Some engine -> Engine.alloc_fiber_id engine
  | None ->
      let cell = Domain.DLS.get domain_next_id in
      incr cell;
      !cell

let no_waker () = ()

let wake fiber =
  match fiber.parked with
  | None -> ()
  | Some k ->
      fiber.parked <- None;
      if fiber.killed then discontinue k Killed else continue k ()

let waker fiber =
  if fiber.waker == no_waker then fiber.waker <- (fun () -> wake fiber);
  fiber.waker

let spawn ?engine ?(name = "fiber") body =
  let fiber =
    {
      id = alloc_id engine;
      name;
      killed = false;
      finished = false;
      parked = None;
      waker = no_waker;
    }
  in
  (* Made once per fiber, so that handling an effect allocates nothing. *)
  let return_self = Some (fun k -> continue k fiber) in
  let park = Some (fun k -> fiber.parked <- Some k) in
  let finish () = fiber.finished <- true in
  let handler =
    {
      retc = finish;
      exnc =
        (function
        | Killed -> finish ()
        | e -> Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ()));
      effc =
        (fun (type b) (eff : b Effect.t) :
             ((b, unit) continuation -> unit) option ->
          match eff with Self -> return_self | Park -> park | _ -> None);
    }
  in
  match_with body () handler;
  fiber

let self () = Effect.perform Self

let park () = Effect.perform Park

let kill fiber = fiber.killed <- true

let is_alive fiber = not (fiber.killed || fiber.finished)

let name fiber = fiber.name

let id fiber = fiber.id

let sleep engine span =
  (* Fire-and-forget by design: the only waker is the timer itself, so no
     handle is retained. If the fiber is killed while parked, the timer
     still fires — the wake-up discontinues the continuation, running its
     cleanup (e.g. Fiber_mutex release) at the instant the sleep would
     have ended. Cancelling at kill time would skip that cleanup. *)
  Engine.post_after engine span (waker (self ()));
  park ()

type join = { mutable remaining : int; mutable waiter : t option }

let join children = { remaining = children; waiter = None }

let arrive join =
  join.remaining <- join.remaining - 1;
  if join.remaining = 0 then Option.iter wake join.waiter

let await join =
  if join.remaining > 0 then begin
    join.waiter <- Some (self ());
    park ()
  end

let parallel_iter ?(name = "worker") ~workers f items =
  match items with
  | [] -> ()
  | [ item ] -> f item
  | _ ->
      let queue = Queue.create () in
      List.iter (fun item -> Queue.add item queue) items;
      let pool = max 1 (min workers (Queue.length queue)) in
      let drained = join pool in
      let failure = ref None in
      let body () =
        let rec drain () =
          match Queue.take_opt queue with
          | None -> ()
          | Some item ->
              (try f item
               with e -> if !failure = None then failure := Some e);
              drain ()
        in
        drain ();
        arrive drained
      in
      for i = 1 to pool do
        ignore (spawn ~name:(Printf.sprintf "%s-%d" name i) body)
      done;
      await drained;
      (match !failure with Some e -> raise e | None -> ())
