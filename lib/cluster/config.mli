(** Cluster-wide configuration: which memory manager runs, and every
    cost constant of the simulated Paragon (see DESIGN.md section 5). *)

(** The distributed memory manager under test. *)
type mm = Mm_asvm | Mm_xmm

type t = {
  nodes : int;
  mm : mm;
  vm : Asvm_machvm.Vm_config.t;
  net : Asvm_mesh.Network.config;
  asvm : Asvm_core.Asvm.config;
  norma : Asvm_norma.Ipc.config;
  disk : Asvm_pager.Disk.config;
  pager : Asvm_pager.Store_pager.config;
  io_node : int;  (** node hosting pagers and their disk *)
  fork_threads : int;  (** XMM internal-pager thread pool per node *)
  barrier_ms : float;  (** cost of one barrier release *)
  trace_capacity : int option;
      (** keep the most recent N protocol events in the in-memory ring
          (see {!Asvm_obs.Trace}); [None] disables the ring unless
          [trace_out] is set *)
  trace_out : string option;
      (** stream every trace event as one JSON object per line to this
          file (see [docs/OBSERVABILITY.md] for the schema) *)
  net_interposer : Asvm_mesh.Network.interposer option;
      (** chaos fault-injection hook installed on the mesh at cluster
          creation, perturbing {e every} transport (STS and NORMA alike);
          [None] (default) leaves the network perfect.  Compile one from
          a fault plan with [Asvm_chaos.Plan.net_interposer]; see
          [docs/RELIABILITY.md] *)
}

(** Paragon GP defaults: 16 MB nodes (~9 MB for user pages), ASVM. *)
val default : nodes:int -> t

val with_mm : t -> mm -> t

(** Same configuration with [pages] of user memory per node. *)
val with_memory_pages : t -> int -> t

val mm_name : mm -> string
