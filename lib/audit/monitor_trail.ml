open Tandem_sim
open Tandem_disk

type disposition = Committed | Aborted

type t = {
  volume : Volume.t;
  daemon : Force_daemon.t;
  table : disposition Transid.Tbl.t;
  mutable history : (Transid.t * disposition) list; (* newest first *)
  staged : unit Transid.Tbl.t; (* being forced right now *)
  unforced : unit Transid.Tbl.t; (* recorded but not yet on oxide *)
}

let create ?(force_window = 0) volume =
  {
    volume;
    daemon = Force_daemon.create ~window:force_window volume;
    table = Transid.Tbl.create 64;
    history = [];
    staged = Transid.Tbl.create 8;
    unforced = Transid.Tbl.create 8;
  }

let check_fresh t transid =
  if Transid.Tbl.mem t.table transid || Transid.Tbl.mem t.staged transid then
    invalid_arg
      ("Monitor_trail.record: duplicate disposition for "
     ^ Transid.to_string transid)

let record t ~transid disposition =
  check_fresh t transid;
  Transid.Tbl.replace t.staged transid ();
  (* The transaction commits at the instant its record is on oxide; the
     group-commit daemon batches concurrent completion records into one
     physical write. A recorder killed mid-force (its processor failed)
     never recorded anything: nobody observed the disposition, so the
     takeover path may still resolve the transaction either way. *)
  (match Force_daemon.force t.daemon with
  | () -> ()
  | exception e ->
      Transid.Tbl.remove t.staged transid;
      raise e);
  Transid.Tbl.remove t.staged transid;
  Transid.Tbl.remove t.unforced transid;
  Transid.Tbl.replace t.table transid disposition;
  t.history <- (transid, disposition) :: t.history

let record_unforced t ~transid disposition =
  check_fresh t transid;
  Transid.Tbl.replace t.unforced transid ();
  Transid.Tbl.replace t.table transid disposition;
  t.history <- (transid, disposition) :: t.history

let crash t =
  let lost =
    Transid.Tbl.fold (fun transid () acc -> transid :: acc) t.unforced []
  in
  List.iter
    (fun transid ->
      Transid.Tbl.remove t.table transid;
      t.history <-
        List.filter (fun (recorded, _) -> recorded <> transid) t.history)
    lost;
  Transid.Tbl.reset t.unforced;
  List.length lost

let disposition_of t ~transid = Transid.Tbl.find_opt t.table transid

let count t disposition =
  Transid.Tbl.fold
    (fun _ d acc -> if d = disposition then acc + 1 else acc)
    t.table 0

let entries t = List.rev t.history
