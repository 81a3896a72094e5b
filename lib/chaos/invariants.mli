(** Protocol invariant checking over a quiescent cluster.

    Run the engine dry first ([Cluster.run]); then {!check} audits the
    global safety properties both memory managers must preserve no
    matter what the fault plan did to their messages:

    - {b single writer}: at most one node holds kernel write access to
      any page, and a writer never coexists with other resident copies;
    - {b no forked pages}: every resident, accessible copy of a page
      has identical contents (compared by {!Asvm_machvm.Contents.checksum});
    - {b reader-list consistency} (ASVM): every reader registered at an
      owner is a sharer, holds the page resident, and is not the owner;
    - {b owner-side machine state} (ASVM): delegates
      {!Asvm_core.Asvm.check_invariants} — single owner per page, owner
      residency, no stuck operations, no parked requests;
    - {b STS buffer-pool balance} (ASVM): every page receive buffer
      reserved during the run was released (zero outstanding per node);
    - {b crashed-node silence}: a node that is down holds no resident
      frames — recovery traffic must never repopulate a dead kernel;
    - {b no stranded faults}: the kernel of a node that is up has no
      fault parked on a manager reply ({!Asvm_machvm.Vm.pending_faults});
      a down node's parked faults wait for its rejoin.

    These are the properties that must also hold {e across crash
    epochs}: after {!Asvm_cluster.Cluster.crash_node} /
    [rejoin_node] cycles (the [Plan.crashes] schedule), a quiesced
    cluster must still show one writer per page, unforked contents and
    balanced buffer pools — any write the protocol still exposes to
    survivors is intact (see [docs/AVAILABILITY.md]).

    Violations are human-readable strings; the empty list means the
    system state is coherent.  Callers report violations together with
    the seed and fault plan so they can be replayed exactly. *)

(** Audit [cluster]; must be quiescent.  The per-page checks visit the
    pages resident on some sharer or owned by some node, ascending, so
    the cost follows what is resident; [pages ~obj ~size] replaces that
    set, here and in {!Asvm_core.Asvm.check_invariants} (a test passes
    every page to compare the two walks). *)
val check :
  ?pages:(obj:Asvm_machvm.Ids.obj_id -> size:int -> int list) ->
  Asvm_cluster.Cluster.t ->
  string list
