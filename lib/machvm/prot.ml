type t = No_access | Read_only | Read_write

let rank = function No_access -> 0 | Read_only -> 1 | Read_write -> 2
let equal a b = rank a = rank b
let compare a b = Int.compare (rank a) (rank b)
let allows granted wanted = rank granted >= rank wanted
let min a b = if rank a <= rank b then a else b

let to_string = function
  | No_access -> "none"
  | Read_only -> "read"
  | Read_write -> "write"
