(* The benchmark's three workloads: configuration, seeded input generation
   and the public-API calls that build each cluster.

   Every workload is a closed loop: each terminal's inputs are pre-queued
   through [Tcp.submit] with zero think time, so a terminal starts its next
   transaction as soon as the previous one settles, and the run lasts until
   every input has settled. Inputs are generated from the benchmark seed
   before any timed set-up starts; the cluster itself is built with a fixed
   seed, so the simulated system sees only the generated inputs. *)

open Tandem_sim
open Tandem_os
open Tandem_db
open Tandem_encompass

type size = Full | Small
(* [Small] keeps every workload's shape (nodes, terminals, mix, knobs) but
   shrinks accounts and inputs per terminal, for the determinism test. *)

type input = { pool : int; terminal : int; text : string; debit_credit : bool }

type built = {
  cluster : Cluster.t;
  spec : Workload.bank_spec;
  tcps : Tcp.t array;  (** One per terminal pool, indexed by [input.pool]. *)
  dc_pools : int list;
      (** Pools running only debit-credit, whose completions are the
          committed debit-credits; empty when debit-credit shares a pool. *)
  histories : (int * string * string) list;
      (** [(node, volume, file)] of every history file debit-credit appends
          to. *)
}

type t = {
  name : string;
  set_seconds : float;
      (** Seconds of the measuring window budgeted per input set; a run
          measures [max 3 (window / set_seconds)] sets. *)
  generate : size -> Rng.t -> input array;
  build : size -> install:(Cluster.t -> Workload.bank_spec -> unit) -> built;
      (** Calls [install] exactly once, in place of [Workload.install_bank],
          so the caller can time the bulk load on its own. *)
}

(* ------------------------------------------------------------------ *)
(* Zipf from a precomputed CDF

   [Rng.zipf] recomputes its O(n) normalizer on every draw; a skewed
   workload drawing tens of thousands of keys would spend seconds in the
   generator. This is the same distribution (and, for equal float sums, the
   same stream of draws): cumulative weights 1/k^theta, one uniform draw
   scaled to the total, binary search for the first rank at or above it. *)

let zipf_cdf ~n ~theta =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta);
    cdf.(i - 1) <- !acc
  done;
  cdf

let zipf_draw rng cdf =
  let n = Array.length cdf in
  let target = Rng.float rng cdf.(n - 1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= target then hi := mid else lo := mid + 1
  done;
  !lo

let debit_credit_text ~account ~teller ~branch ~delta =
  Record.encode
    [
      ("account", string_of_int account);
      ("teller", string_of_int teller);
      ("branch", string_of_int branch);
      ("delta", string_of_int delta);
    ]

let history_of (spec : Workload.bank_spec) =
  let node, volume = spec.system_home in
  [ (node, volume, Workload.history_file) ]

(* ------------------------------------------------------------------ *)
(* scaleout-8n: the published scale-out headline configuration at the
   BENCH_scaleout.json knee (8 nodes x 64 terminals). The only workload with
   cross-node two-phase commit, network boxcars and a bulk load large
   enough to dominate set-up; its 200k accounts far exceed the 384-block
   controller caches. *)

module Scaleout = struct
  let nodes = 8
  let terminals_per_node = 64
  let servers_per_class = 8

  let accounts = function Full -> 200_000 | Small -> 4_000
  let per_terminal = function Full -> 40 | Small -> 2

  let config =
    {
      Hw_config.default with
      Hw_config.group_commit_window = Sim_time.microseconds 500;
      disc_cache_blocks = 384;
    }

  type kind = Dc | Transfer | Inquiry

  (* A quarter debit-credit, three eighths each transfer and inquiry; a
     TCP controls at most 32 terminals, so each kind's terminals shard
     into TCPs of 32. *)
  let pools =
    let dc = terminals_per_node / 4 in
    let transfer = 3 * terminals_per_node / 8 in
    let inquiry = terminals_per_node - dc - transfer in
    let rec chunk terminals =
      if terminals <= 0 then []
      else if terminals <= 32 then [ terminals ]
      else 32 :: chunk (terminals - 32)
    in
    List.concat_map
      (fun node ->
        List.concat_map
          (fun (kind, count) ->
            List.mapi (fun i size -> (node, kind, i, size)) (chunk count))
          [ (Dc, dc); (Transfer, transfer); (Inquiry, inquiry) ])
      (List.init nodes (fun i -> i + 1))
    |> Array.of_list

  let data_volume n side = Printf.sprintf "$DATA%d%s" n side

  let spec size =
    {
      Workload.accounts = accounts size;
      tellers = 40 * nodes;
      branches = 8 * nodes;
      initial_balance = 10_000;
      account_partitions =
        List.concat_map
          (fun n -> [ (n, data_volume n "A"); (n, data_volume n "B") ])
          (List.init nodes (fun i -> i + 1));
      system_home = (1, data_volume 1 "A");
    }

  (* Debit-credit banks against the key range its node owns; transfers and
     inquiries pick accounts uniformly over the whole bank, so cross-node
     commits and remote reads stay in the mix. *)
  let local_range ~total ~node =
    let lo = (node - 1) * total / nodes in
    (lo, max 1 ((node * total / nodes) - lo))

  let generate size rng =
    let spec = spec size in
    let per_terminal = per_terminal size in
    Array.to_list pools
    |> List.mapi (fun pool (node, kind, _, terminals) ->
           List.init terminals (fun terminal ->
               List.init per_terminal (fun _ ->
                   let text =
                     match kind with
                     | Dc ->
                         let pick total =
                           let lo, width = local_range ~total ~node in
                           lo + Rng.int rng width
                         in
                         let account = pick spec.accounts in
                         let teller = pick spec.tellers in
                         let branch = pick spec.branches in
                         debit_credit_text ~account ~teller ~branch
                           ~delta:(Rng.int_in_range rng ~lo:(-100) ~hi:100)
                     | Transfer -> Workload.transfer_input rng spec ()
                     | Inquiry -> Workload.balance_inquiry_input rng spec ()
                   in
                   { pool; terminal; text; debit_credit = kind = Dc }))
           |> List.concat)
    |> List.concat |> Array.of_list

  let build size ~install =
    let cluster = Cluster.create ~seed:21 ~config () in
    for n = 1 to nodes do
      ignore (Cluster.add_node cluster ~id:n ~cpus:4)
    done;
    for a = 1 to nodes do
      for b = a + 1 to nodes do
        Cluster.link cluster a b
      done
    done;
    for n = 1 to nodes do
      ignore
        (Cluster.add_volume cluster ~node:n ~name:(data_volume n "A")
           ~primary_cpu:2 ~backup_cpu:3 ());
      ignore
        (Cluster.add_volume cluster ~node:n ~name:(data_volume n "B")
           ~primary_cpu:3 ~backup_cpu:2 ())
    done;
    let spec = spec size in
    install cluster spec;
    let histories =
      List.init nodes (fun i ->
          let n = i + 1 in
          let history = Printf.sprintf "HISTORY%d" n in
          Cluster.add_file cluster
            (Schema.define ~name:history ~organization:Schema.Entry_sequenced
               ~degree:32
               ~partitions:
                 [
                   {
                     Schema.low_key = Key.min_key;
                     node = n;
                     volume = data_volume n "B";
                   };
                 ]
               ());
          let class_name prefix = Printf.sprintf "%s%d" prefix n in
          ignore
            (Workload.add_bank_servers cluster ~node:n
               ~class_name:(class_name "BANK") ~history_file:history
               ~count:servers_per_class ());
          ignore
            (Workload.add_transfer_servers cluster ~node:n
               ~class_name:(class_name "TRANSFER") ~count:servers_per_class ());
          ignore
            (Workload.add_inquiry_servers cluster ~node:n
               ~class_name:(class_name "INQUIRY") ~count:servers_per_class ());
          (n, data_volume n "B", history))
    in
    let tcps =
      Array.map
        (fun (node, kind, i, terminals) ->
          let suffix, program =
            match kind with
            | Dc ->
                ( "D",
                  Workload.debit_credit_program_for
                    ~server_class:(Printf.sprintf "BANK%d" node) )
            | Transfer ->
                ( "T",
                  Workload.transfer_program_for
                    ~server_class:(Printf.sprintf "TRANSFER%d" node) )
            | Inquiry ->
                ( "Q",
                  Workload.balance_inquiry_program_for
                    ~server_class:(Printf.sprintf "INQUIRY%d" node) )
          in
          Cluster.add_tcp cluster ~node
            ~name:(Printf.sprintf "$TCP%s%d-%d" suffix node i)
            ~terminals ~program ())
        pools
    in
    let dc_pools =
      List.filter_map
        (fun (pool, (_, kind, _, _)) -> if kind = Dc then Some pool else None)
        (List.mapi (fun i p -> (i, p)) (Array.to_list pools))
    in
    { cluster; spec; tcps; dc_pools; histories }
end

(* ------------------------------------------------------------------ *)
(* bank-local-hot: one node, no network and no distributed commit. A
   Zipf(1.1)-skewed debit-credit and transfer mix on a cache-resident bank,
   so lock waits, audit forces, group commit and fibers carry the work; the
   bypass case for any network or TMP change. *)

module Local_hot = struct
  let terminals = 32 (* per pool: one debit-credit, one transfer *)
  let servers_per_class = 8
  let theta = 1.1
  let accounts = 2_000
  let per_terminal = function Full -> 500 | Small -> 6

  let spec =
    {
      Workload.accounts;
      tellers = 20;
      branches = 10;
      initial_balance = 1_000;
      account_partitions = [ (1, "$DATA1"); (1, "$DATA2") ];
      system_home = (1, "$DATA1");
    }

  let generate size rng =
    let cdf = zipf_cdf ~n:accounts ~theta in
    let per_terminal = per_terminal size in
    let pool_inputs pool make =
      List.init terminals (fun terminal ->
          List.init per_terminal (fun _ ->
              { pool; terminal; text = make (); debit_credit = pool = 0 }))
      |> List.concat
    in
    let debit_credit () =
      let account = zipf_draw rng cdf in
      let teller = Rng.int rng spec.tellers in
      let branch = Rng.int rng spec.branches in
      debit_credit_text ~account ~teller ~branch
        ~delta:(Rng.int_in_range rng ~lo:(-100) ~hi:100)
    in
    let transfer () =
      let from_account = zipf_draw rng cdf in
      let to_account =
        (from_account + 1 + Rng.int rng (accounts - 1)) mod accounts
      in
      Workload.transfer_input_between ~from_account ~to_account
        ~amount:(Rng.int_in_range rng ~lo:1 ~hi:50)
    in
    Array.of_list (pool_inputs 0 debit_credit @ pool_inputs 1 transfer)

  let build _size ~install =
    let cluster = Cluster.create ~seed:7 () in
    ignore (Cluster.add_node cluster ~id:1 ~cpus:8);
    ignore
      (Cluster.add_volume cluster ~node:1 ~name:"$DATA1" ~primary_cpu:2
         ~backup_cpu:3 ());
    ignore
      (Cluster.add_volume cluster ~node:1 ~name:"$DATA2" ~primary_cpu:3
         ~backup_cpu:4 ());
    install cluster spec;
    ignore
      (Workload.add_bank_servers cluster ~node:1 ~count:servers_per_class ());
    ignore
      (Workload.add_transfer_servers cluster ~node:1 ~count:servers_per_class
         ());
    let tcps =
      [|
        Cluster.add_tcp cluster ~node:1 ~name:"$TCPD" ~primary_cpu:0
          ~backup_cpu:1 ~terminals ~program:Workload.debit_credit_program ();
        Cluster.add_tcp cluster ~node:1 ~name:"$TCPT" ~primary_cpu:1
          ~backup_cpu:0 ~terminals ~program:Workload.transfer_program ();
      |]
    in
    { cluster; spec; tcps; dc_pools = [ 0 ]; histories = history_of spec }
end

(* ------------------------------------------------------------------ *)
(* read-mostly-3n: the READPATH configuration with every protocol knob at
   its default. 90% balance inquiry, 10% debit-credit over three nodes,
   resident data: the db, lock and TMP layers serve reads (read-only votes,
   remote reads), and lock timeouts drive backout and restarts. *)

module Read_mostly = struct
  let nodes = [ 1; 2; 3 ]
  let terminals = 24 (* per node *)
  let accounts = 1_200
  let per_terminal = function Full -> 500 | Small -> 6

  (* One screen program for the mix: the input names its server class. *)
  let mix_program =
    Screen_program.transaction ~name:"read-mostly-mix" (fun verbs input ->
        let server_class =
          Option.value ~default:"INQUIRY" (Record.field input "class")
        in
        verbs.Screen_program.send ~server_class input)

  let spec =
    {
      Workload.accounts;
      tellers = 10;
      branches = 5;
      initial_balance = 10_000;
      account_partitions = [ (1, "$DATA1"); (2, "$DATA2"); (3, "$DATA3") ];
      system_home = (1, "$DATA1");
    }

  (* Input i goes to TCP i mod 3, terminal (i / 3) mod 24: consecutive
     inputs spread over every node's terminals. *)
  let generate size rng =
    let tcp_count = List.length nodes in
    Array.init
      (tcp_count * terminals * per_terminal size)
      (fun i ->
        let account = Rng.int rng accounts in
        let debit_credit = Rng.int rng 10 = 0 in
        let text =
          if debit_credit then
            Record.encode
              [
                ("class", "BANK");
                ("account", string_of_int account);
                ("teller", string_of_int (Rng.int rng spec.tellers));
                ("branch", string_of_int (Rng.int rng spec.branches));
                ("delta", string_of_int (1 + Rng.int rng 100));
              ]
          else
            Record.encode
              [ ("class", "INQUIRY"); ("account", string_of_int account) ]
        in
        {
          pool = i mod tcp_count;
          terminal = i / tcp_count mod terminals;
          text;
          debit_credit;
        })

  (* Lock timeouts restart transactions; the default limit of 3 restarts
     abandons a few inputs on some seeds, so the limit is raised until none
     is: the restarts and backouts stay, and every input commits. *)
  let restart_limit = 20

  let build _size ~install =
    let cluster = Cluster.create ~seed:11 ~restart_limit () in
    List.iter (fun id -> ignore (Cluster.add_node cluster ~id ~cpus:4)) nodes;
    Cluster.link cluster 1 2;
    Cluster.link cluster 1 3;
    List.iter
      (fun (node, name) ->
        ignore
          (Cluster.add_volume cluster ~node ~name ~primary_cpu:2 ~backup_cpu:3
             ()))
      spec.account_partitions;
    install cluster spec;
    ignore (Workload.add_bank_servers cluster ~node:1 ~count:16 ());
    ignore (Workload.add_inquiry_servers cluster ~node:1 ~count:32 ());
    let tcps =
      Array.of_list
        (List.map
           (fun node ->
             Cluster.add_tcp cluster ~node
               ~name:(Printf.sprintf "$TCP%d" node)
               ~terminals ~program:mix_program ())
           nodes)
    in
    { cluster; spec; tcps; dc_pools = []; histories = history_of spec }
end

(* [set_seconds] sizes a run: the 36 s window of BENCHMARK.json measures 3
   input sets of scaleout-8n, 3 of bank-local-hot and 5 of read-mostly-3n.
   read-mostly-3n gets the most because lock-timeout storms make one set's
   throughput and mean latency swing by up to a fifth from seed to seed,
   and pooling five sets narrows that by more than twice; bank-local-hot's
   simulated figures vary least. *)
let all =
  [
    {
      name = "scaleout-8n";
      set_seconds = 11.0;
      generate = Scaleout.generate;
      build = Scaleout.build;
    };
    {
      name = "bank-local-hot";
      set_seconds = 12.0;
      generate = Local_hot.generate;
      build = Local_hot.build;
    };
    {
      name = "read-mostly-3n";
      set_seconds = 7.2;
      generate = Read_mostly.generate;
      build = Read_mostly.build;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
