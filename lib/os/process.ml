open Tandem_sim

(* An outstanding RPC: the requester parked on it, and the timeout armed
   with that fiber's waker. The reply is stored here before the wake-up. *)
type reply_wait = {
  fiber : Fiber.t;
  timer : Engine.handle;
  mutable reply : Message.payload;
}

type Message.payload += No_reply

type t = {
  engine : Engine.t;
  pid : Ids.pid;
  name : string;
  cpu : Cpu.t;
  mailbox : Mailbox.t;
  mutable fibers : Fiber.t list; (* every live fiber, and some finished *)
  mutable listed : int; (* length of [fibers] *)
  mutable prune_at : int;
  mutable alive : bool;
  pending_replies : reply_wait Tbl.Int.t;
}

let create engine ~pid ~name ~cpu =
  {
    engine;
    pid;
    name;
    cpu;
    mailbox = Mailbox.create ();
    fibers = [];
    listed = 0;
    prune_at = 16;
    alive = true;
    pending_replies = Tbl.Int.create 8;
  }

let spawn_fiber t body =
  if not t.alive then invalid_arg "Process.spawn_fiber: process is dead";
  let fiber = Fiber.spawn ~engine:t.engine ~name:t.name body in
  t.fibers <- fiber :: t.fibers;
  t.listed <- t.listed + 1;
  (* Only [kill] reads the list: drop the finished fibers once it is twice
     as long as after the last pass, for O(1) amortized per spawn. *)
  if t.listed >= t.prune_at then begin
    t.fibers <- List.filter Fiber.is_alive t.fibers;
    t.listed <- List.length t.fibers;
    t.prune_at <- max 16 (2 * t.listed)
  end

let start t body = spawn_fiber t (fun () -> body t)

let pid t = t.pid

let name t = t.name

let cpu t = t.cpu

let mailbox t = t.mailbox

let is_alive t = t.alive

let kill t =
  if t.alive then begin
    t.alive <- false;
    List.iter Fiber.kill t.fibers;
    Mailbox.flush_dead t.mailbox;
    (* Outstanding RPC waits belong to the fibers just killed; their
       timeout timers will fire and discontinue them. Dropping the table
       merely stops replies from reaching a corpse. *)
    Tbl.Int.reset t.pending_replies
  end

let deliver t message =
  if t.alive then begin
    match message.Message.kind with
    | Message.Reply -> (
        match Tbl.Int.find_opt t.pending_replies message.Message.corr with
        | Some wait ->
            (* The reply wins the race: retire the timeout, then wake. *)
            Tbl.Int.remove t.pending_replies message.Message.corr;
            Engine.cancel wait.timer;
            wait.reply <- message.Message.payload;
            Fiber.wake wait.fiber
        | None ->
            (* Late reply after the requester timed out: discard. *)
            ())
    | Message.Request | Message.Oneway -> Mailbox.enqueue t.mailbox message
  end

let await_reply t ~corr ~timeout =
  let fiber = Fiber.self () in
  let timer = Engine.schedule_after t.engine timeout (Fiber.waker fiber) in
  let wait = { fiber; timer; reply = No_reply } in
  Tbl.Int.replace t.pending_replies corr wait;
  wait

let reply_of t ~corr wait =
  if wait.reply == No_reply then begin
    (* Woken by the timer: a late reply must find no entry. *)
    Tbl.Int.remove t.pending_replies corr;
    Error `Timeout
  end
  else Ok wait.reply

let receive ?filter t = Mailbox.receive ?filter t.mailbox
