(** Page protection / access levels, ordered [No_access < Read_only <
    Read_write]. *)

type t = No_access | Read_only | Read_write

val equal : t -> t -> bool
val compare : t -> t -> int

(** [allows granted wanted]: does holding [granted] satisfy a fault that
    wants [wanted]? *)
val allows : t -> t -> bool

val min : t -> t -> t
val to_string : t -> string
