(** EMMI — the External Memory Management Interface, including the five
    extensions ASVM adds (paper section 3.7.1).

    The kernel side of the interface is the [Vm] module's
    [data_supply] / [lock_request] / [pull_request] / [data_error]
    functions. This module defines the protocol vocabulary and the
    {!manager} record through which a kernel talks to whatever manages a
    memory object: a local pager, the XMM stack, or an ASVM instance.

    Everything is asynchronous: calls never return results directly;
    answers arrive through continuations or through later calls on the
    opposite interface, mirroring the paper's "asynchronous state
    transitions" design rule. *)

(** [Supply_push] is the extended [memory_object_data_supply] mode: the
    page is pushed down the VM-internal copy chain instead of being
    supplied to the object itself. *)
type supply_mode = Supply_normal | Supply_push

(** Extended [memory_object_lock_request] mode: [Lock_push_first] pushes
    the page down the copy chain before applying the lock. *)
type lock_mode = Lock_plain | Lock_push_first

(** Reply to a lock request ([memory_object_lock_completed] with the
    extended "result" argument). [Lock_not_present] reports that a
    requested push could not run because the page is not in this node's
    VM cache. [returned] carries the page contents when the lock had
    [clean = true] and the page was dirty. *)
type lock_result =
  | Lock_done of { returned : Contents.t option }
  | Lock_not_present

(** Reply to [memory_object_pull_request] (the paper's three cases):
    zero-fill, contents found in the local shadow chain, or "ask the
    manager of this shadow object". *)
type pull_result =
  | Pull_zero_fill
  | Pull_contents of Contents.t
  | Pull_ask_shadow of Ids.obj_id

(** What a lock request does to a page on one node:
    - [max_access]: access the node retains; [No_access] flushes the page
      from the cache entirely.
    - [clean]: return the contents in the reply if the page is dirty.
    - [mode]: optionally push down the copy chain first. *)
type lock_op = { max_access : Prot.t; clean : bool; mode : lock_mode }

(** Manager interface for one (node, object) binding. The kernel calls
    these; the manager answers via the kernel's EMMI entry points. *)
type manager = {
  m_data_request : page:int -> desired:Prot.t -> unit;
      (** page fault needs contents and [desired] access *)
  m_data_unlock : page:int -> desired:Prot.t -> unit;
      (** page is resident but with insufficient access *)
  m_data_return : page:int -> contents:Contents.t -> dirty:bool -> unit;
      (** eviction hands the page back to the manager *)
}

(** A manager that accepts nothing — objects bound to it must never
    generate requests; used as a guard in tests. *)
val null_manager : manager
