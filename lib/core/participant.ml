type t = {
  volume : string;
  node : Tandem_os.Ids.node_id;
  trail : string;
  flush_audit :
    self:Tandem_os.Process.t -> Tandem_sim.Transid.t -> (int, string) result;
  release_locks : self:Tandem_os.Process.t -> Tandem_sim.Transid.t -> unit;
  apply_undo :
    self:Tandem_os.Process.t ->
    Tandem_audit.Audit_record.image ->
    (unit, string) result;
}
