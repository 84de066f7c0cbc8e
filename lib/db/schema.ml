type organization = Key_sequenced | Relative | Entry_sequenced

type index_def = { index_name : string; on_field : string }

type partition_def = {
  low_key : Key.t;
  node : Tandem_os.Ids.node_id;
  volume : string;
}

type file_def = {
  file_name : string;
  organization : organization;
  audited : bool;
  degree : int;
  indices : index_def list;
  partitions : partition_def list;
  restrict_to_nodes : Tandem_os.Ids.node_id list option;
}

let define ~name ~organization ?(audited = true) ?(degree = 16)
    ?(indices = []) ?restrict_to_nodes ~partitions () =
  (match partitions with
  | [] -> invalid_arg "Schema.define: a file needs at least one partition"
  | first :: _ ->
      if not (Key.equal first.low_key Key.min_key) then
        invalid_arg "Schema.define: first partition must start at the minimum key");
  let rec check_ascending = function
    | a :: (b :: _ as rest) ->
        if Key.compare a.low_key b.low_key >= 0 then
          invalid_arg "Schema.define: partition low keys must ascend";
        check_ascending rest
    | [ _ ] | [] -> ()
  in
  check_ascending partitions;
  if indices <> [] && organization <> Key_sequenced then
    invalid_arg "Schema.define: secondary indices require a key-sequenced file";
  if degree < 2 then invalid_arg "Schema.define: degree must be >= 2";
  {
    file_name = name;
    organization;
    audited;
    degree;
    indices;
    partitions;
    restrict_to_nodes;
  }

let node_allowed def node =
  match def.restrict_to_nodes with
  | None -> true
  | Some nodes -> List.mem node nodes

let partition_index def key =
  let rec scan i best = function
    | [] -> best
    | p :: rest ->
        if Key.compare p.low_key key <= 0 then scan (i + 1) i rest else best
  in
  scan 0 0 def.partitions

let partition_for def key = List.nth def.partitions (partition_index def key)

type t = { files : file_def Tandem_sim.Tbl.String.t }

let create_dictionary () = { files = Tandem_sim.Tbl.String.create 16 }

let add t def =
  if Tandem_sim.Tbl.String.mem t.files def.file_name then
    invalid_arg ("Schema.add: duplicate file " ^ def.file_name);
  Tandem_sim.Tbl.String.replace t.files def.file_name def

let find t name = Tandem_sim.Tbl.String.find_opt t.files name

let all t =
  Tandem_sim.Tbl.String.fold (fun _ def acc -> def :: acc) t.files []
  |> List.sort (fun a b -> String.compare a.file_name b.file_name)
