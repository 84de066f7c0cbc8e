open Tandem_sim
open Tandem_os
open Tandem_db
open Tandem_encompass

let entry_payload ~target ~file ~key ~payload =
  Record.encode
    [
      ("target", string_of_int target);
      ("file", file);
      ("key", key);
      ("data", payload);
    ]

let decode_entry encoded =
  match
    ( Record.int_field encoded "target",
      Record.field encoded "file",
      Record.field encoded "key",
      Record.field encoded "data" )
  with
  | Some target, Some file, Some key, Some data -> Some (target, file, key, data)
  | _ -> None

type t = {
  cluster : Cluster.t;
  node : Ids.node_id;
  suspense_file : string;
  apply_class : Ids.node_id -> string;
  mutable delivered : int;
  mutable skipped : int;
}

(* One delivery: a TMF transaction that sends the update to a server at the
   target node and deletes the suspense entry. Either both happen or
   neither. *)
let deliver t process entry_key entry =
  match decode_entry entry with
  | None -> `Failed
  | Some (target, file, key, data) -> (
      let tmf = Cluster.tmf t.cluster in
      let transid = Tmf.begin_transaction tmf ~node:t.node ~cpu:(Process.pid process).Ids.cpu in
      let apply_request =
        Record.encode [ ("file", file); ("key", key); ("data", data) ]
      in
      let outcome =
        match
          Option.map
            (fun apply ->
              Server.send (Cluster.net t.cluster) ~self:process ~tmf ~transid
                apply apply_request)
            (Cluster.server_class t.cluster (t.apply_class target))
        with
        | None | Some (Error _) -> `Failed
        | Some (Ok _) -> (
            match
              File_client.delete (Cluster.files t.cluster) ~self:process
                ~transid ~file:t.suspense_file entry_key
            with
            | Ok () -> `Applied
            | Error _ -> `Failed)
      in
      match outcome with
      | `Applied -> (
          match Tmf.end_transaction tmf ~self:process transid with
          | Ok () -> `Applied
          | Error _ -> `Failed)
      | `Failed ->
          ignore
            (Tmf.abort_transaction tmf ~self:process
               ~reason:"suspense delivery failed" transid);
          `Failed)

let scan_pass t process =
  let files = Cluster.files t.cluster in
  let net = Cluster.net t.cluster in
  (* Targets blocked for the rest of this pass: in-order delivery per
     target requires stopping that target's stream at the first failure. *)
  let blocked = Hashtbl.create 4 in
  let rec walk after =
    match
      File_client.next_after files ~self:process ~file:t.suspense_file after
    with
    | Error _ | Ok None -> ()
    | Ok (Some (entry_key, entry)) ->
        (match decode_entry entry with
        | None -> ()
        | Some (target, _, _, _) ->
            if Hashtbl.mem blocked target || not (Net.reachable net t.node target)
            then begin
              t.skipped <- t.skipped + 1;
              Hashtbl.replace blocked target ()
            end
            else begin
              match deliver t process entry_key entry with
              | `Applied -> t.delivered <- t.delivered + 1
              | `Failed ->
                  t.skipped <- t.skipped + 1;
                  Hashtbl.replace blocked target ()
            end);
        walk entry_key
  in
  walk Key.min_key

let start ~cluster ~node ~suspense_file ~apply_class
    ?(interval = Sim_time.milliseconds 500) () =
  let t =
    {
      cluster;
      node;
      suspense_file;
      apply_class;
      delivered = 0;
      skipped = 0;
    }
  in
  let node_object = Net.node (Cluster.net cluster) node in
  let current = ref None in
  let spawn_monitor cpu =
    let process =
      Node.spawn node_object ~name:(Printf.sprintf "$SUSP%d" node) ~cpu
        (fun process ->
          let rec loop () =
            scan_pass t process;
            Fiber.sleep (Cluster.engine cluster) interval;
            loop ()
          in
          loop ())
    in
    current := Some process
  in
  spawn_monitor 1;
  (* The monitor is a dedicated process; if its processor fails it is
     re-created on a surviving one (the suspense file itself is ordinary
     audited data, so no work is lost). *)
  Node.on_cpu_down node_object (fun _failed ->
      match !current with
      | Some process when not (Process.is_alive process) -> (
          match Node.up_cpus node_object with
          | cpu :: _ -> spawn_monitor cpu
          | [] -> ())
      | _ -> ());
  t

let deliveries t = t.delivered

let skips t = t.skipped
