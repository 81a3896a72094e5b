module Cluster = Asvm_cluster.Cluster
module Config = Asvm_cluster.Config
module Asvm = Asvm_core.Asvm
module Vm = Asvm_machvm.Vm
module Vm_object = Asvm_machvm.Vm_object
module Contents = Asvm_machvm.Contents
module Prot = Asvm_machvm.Prot

(* A resident, accessible copy of a page on one node. *)
type copy = { c_node : int; c_access : Prot.t; c_sum : int }

let copies_of vms ~sharers ~obj ~page =
  List.filter_map
    (fun node ->
      let vm = vms.(node) in
      if not (Vm.is_resident vm ~obj ~page) then None
      else
        match Vm.frame_access vm ~obj ~page with
        | None | Some Prot.No_access -> None
        | Some access ->
          (* in-place, memoized checksum: on a quiesced cluster a
             re-audit of unchanged pages is all cache hits *)
          let sum =
            match Vm.frame_checksum vm ~obj ~page with
            | Some s -> s
            | None -> 0
          in
          Some { c_node = node; c_access = access; c_sum = sum })
    sharers

let check ?pages cl =
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let nodes = (Cluster.config cl).Config.nodes in
  let vms = Array.init nodes (Cluster.node_vm cl) in
  let asvm =
    match Cluster.backend cl with `Asvm a -> Some a | `Xmm _ -> None
  in
  (* owner-side machine state + buffer-pool balance (ASVM) *)
  (match asvm with
  | None -> ()
  | Some a ->
    List.iter (fun v -> bad "asvm: %s" v) (Asvm.check_invariants ?pages a);
    for node = 0 to nodes - 1 do
      let r = Asvm.buffers_reserved a ~node in
      if r <> 0 then
        bad "sts: node %d holds %d reserved page buffers after quiesce" node r
    done);
  (* a node that is currently crashed must be truly silent: its kernel
     was reset and nothing may have repopulated it while it was down *)
  for node = 0 to nodes - 1 do
    if Cluster.node_down cl ~node then begin
      let r = Vm.resident_total vms.(node) in
      if r <> 0 then
        bad "crash: down node %d holds %d resident frames" node r
    end
  done;
  (* a live kernel waits on no manager reply after quiesce: a fault
     still parked has nothing left to answer it (a down node's faults
     wait for its rejoin by design) *)
  for node = 0 to nodes - 1 do
    if not (Cluster.node_down cl ~node) then begin
      let n = Vm.pending_faults vms.(node) in
      if n <> 0 then
        bad "vm: live node %d still parks faults on %d page%s" node n
          (if n = 1 then "" else "s")
    end
  done;
  (* per-page copy-set invariants, both backends *)
  List.iter
    (fun (obj, sharers) ->
      let size =
        List.fold_left
          (fun acc node ->
            match (acc, Vm.find_object vms.(node) obj) with
            | None, Some o -> Some o.Vm_object.size_pages
            | acc, _ -> acc)
          None sharers
      in
      match size with
      | None -> bad "obj %d: registered but instantiated on no sharer" obj
      | Some size ->
        (* a page resident on no sharer has no copy to compare, and one
           no node owns has no reader list *)
        let pages =
          match pages with
          | Some pages -> pages ~obj ~size
          | None ->
            Vm_object.pages_marked ~size (fun mark ->
                Option.iter
                  (fun a -> List.iter mark (Asvm.owned_pages a ~obj))
                  asvm;
                List.iter
                  (fun node ->
                    match Vm.find_object vms.(node) obj with
                    | Some o ->
                      Asvm_simcore.Int_tbl.iter
                        (fun page _ -> mark page)
                        o.Vm_object.resident
                    | None -> ())
                  sharers)
        in
        List.iter (fun page ->
          let copies = copies_of vms ~sharers ~obj ~page in
          (* single writer, and a writer excludes every other copy *)
          (match List.filter (fun c -> c.c_access = Prot.Read_write) copies with
          | [] -> ()
          | [ w ] ->
            if List.length copies > 1 then
              bad
                "obj %d page %d: writer on node %d coexists with %d other \
                 cop%s"
                obj page w.c_node
                (List.length copies - 1)
                (if List.length copies = 2 then "y" else "ies")
          | ws ->
            bad "obj %d page %d: %d simultaneous writers (nodes %s)" obj page
              (List.length ws)
              (String.concat ","
                 (List.map (fun c -> string_of_int c.c_node) ws)));
          (* no forked pages: all accessible copies agree on contents *)
          (match copies with
          | [] | [ _ ] -> ()
          | first :: rest ->
            List.iter
              (fun c ->
                if c.c_sum <> first.c_sum then
                  bad
                    "obj %d page %d: forked contents (node %d checksum %d <> \
                     node %d checksum %d)"
                    obj page c.c_node c.c_sum first.c_node first.c_sum)
              rest);
          (* reader lists registered at the owner cover reality.  The
             list is an over-approximation by design: a kernel discards
             an evicted read copy silently (§3.6 step 1), so an entry
             for a node that no longer holds the page is normal — it
             costs one wasted invalidation, nothing more.  The unsafe
             direction is a copy the owner does not know about: a
             resident non-owner copy missing from the list would be
             skipped by invalidations and go stale after the next write
             grant. *)
          match asvm with
          | None -> ()
          | Some a -> (
            match Asvm.readers a ~obj ~page with
            | None -> ()
            | Some readers ->
              let owner_nodes =
                List.filter
                  (fun node -> Asvm.is_owner a ~node ~obj ~page)
                  sharers
              in
              List.iter
                (fun r ->
                  if not (List.mem r sharers) then
                    bad "obj %d page %d: registered reader %d is not a sharer"
                      obj page r;
                  if List.mem r owner_nodes then
                    bad "obj %d page %d: owner %d is in its own reader list"
                      obj page r)
                readers;
              if owner_nodes <> [] then
                List.iter
                  (fun c ->
                    if
                      (not (List.mem c.c_node owner_nodes))
                      && not (List.mem c.c_node readers)
                    then
                      bad
                        "obj %d page %d: node %d holds a copy the owner's \
                         reader list does not cover"
                        obj page c.c_node)
                  copies))
          pages)
    (Cluster.registered_objects cl);
  List.rev !violations
