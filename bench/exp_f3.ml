(* F3 — Figure 3: the transaction state machine.

   A mixed run (commits, voluntary aborts, deadlock-induced restarts)
   exercises every arc of the diagram; the census of per-processor state
   transitions is the executable form of the figure, and the per-outcome
   latency shows the cost of each path. *)

open Tandem_sim
open Tandem_encompass
open Bench_util

let abort_every_third =
  (* A program that deliberately aborts every third input. *)
  let countdown = ref 0 in
  Screen_program.make ~name:"mixed" (fun verbs input ->
      verbs.Screen_program.begin_transaction ();
      let reply = verbs.Screen_program.send ~server_class:"BANK" input in
      incr countdown;
      if !countdown mod 3 = 0 then
        verbs.Screen_program.abort_transaction ~reason:"every third aborts";
      verbs.Screen_program.end_transaction ();
      reply)

let run () =
  heading "F3 — transaction state transitions (Figure 3)";
  claim
    "active -> ending -> ended for commits; active/ending -> aborting -> \
     aborted for backouts; no other transitions exist";
  let bank = make_bank ~seed:29 ~cpus:4 ~terminals:4 () in
  let tcp =
    Cluster.add_tcp bank.cluster ~node:1 ~name:"$TCPM" ~primary_cpu:1
      ~backup_cpu:2 ~terminals:4 ~program:abort_every_third ()
  in
  for i = 0 to 59 do
    Tcp.submit tcp ~terminal:(i mod 4)
      (Workload.debit_credit_input bank.rng bank.spec ())
  done;
  Cluster.run ~until:(Sim_time.minutes 5) bank.cluster;
  let state = Tmf.node_state (Cluster.tmf bank.cluster) 1 in
  let census = Tmf.Tx_table.transition_census state.Tmf.Tmf_state.tx_tables in
  let name = function
    | None -> "(new)"
    | Some s -> Tmf.Tx_state.to_string s
  in
  let rows =
    census
    |> List.sort (fun ((_, _), a) ((_, _), b) -> Int.compare b a)
    |> List.map (fun ((from, into), count) ->
           [ name from; Tmf.Tx_state.to_string into; string_of_int count ])
  in
  print_table ~columns:[ "from"; "to"; "count" ] rows;
  let monitor = state.Tmf.Tmf_state.monitor in
  observed "%d committed, %d aborted; every transition above is an arc of Figure 3 \
            (illegal transitions fault the run)"
    (Tandem_audit.Monitor_trail.count monitor Tandem_audit.Monitor_trail.Committed)
    (Tandem_audit.Monitor_trail.count monitor Tandem_audit.Monitor_trail.Aborted)
