(** Single-server FIFO service station.

    Stations model a sequential resource — a node's message-handling
    processor, a pager thread, a disk arm. Work submitted while the server
    is busy queues behind it; this is what turns the XMM centralized
    manager into the bottleneck the paper describes. *)

type t

(** An idle station serving jobs on the given engine's clock. *)
val create : Engine.t -> t

(** [submit t ~service k] enqueues a job needing [service] ms of the
    server; [k] fires when the job completes.
    @raise Invalid_argument if [service] is negative. *)
val submit : t -> service:float -> (unit -> unit) -> unit

(** Time at which the server will next be idle (>= now). *)
val busy_until : t -> float
