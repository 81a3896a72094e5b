(* The paper's published numbers that the workloads are scored against
   (USENIX '96, Zeisset/Tritscher/Mairandres).  The same values as
   bench/paper.ml, copied: bench/ is an executable whose modules cannot be
   linked from here, and a copy keeps the scores fixed if bench/ changes. *)

(* Table 1 fault latencies (ms): (asvm, xmm), in Fault_micro row order. *)
let table1 =
  [
    (2.24, 38.42);
    (3.10, 12.92);
    (8.96, 72.18);
    (1.51, 3.83);
    (7.75, 63.72);
    (2.35, 38.59);
    (2.35, 10.06);
  ]

(* Figure 11 latency model lb + n * la, n = chain length - 1. *)
let fig11_asvm = (2.7, 0.48)
let fig11_xmm = (5.0, 4.3)

(* Table 2 (MB/s per node): nodes, asvm write, xmm write, asvm read,
   xmm read. *)
let table2 =
  [
    (1, 2.80, 2.15, 1.57, 1.18);
    (2, 2.60, 1.77, 1.53, 0.38);
    (4, 2.05, 0.90, 1.14, 0.25);
    (8, 1.22, 0.49, 0.91, 0.11);
    (16, 0.62, 0.24, 0.70, 0.05);
    (32, 0.30, 0.12, 0.66, 0.02);
    (64, 0.15, 0.06, 0.66, 0.01);
  ]

(* Table 3: EM3D, 64,000 cells on 32 nodes under ASVM, 100 iterations. *)
let em3d_64k_32_asvm_s = 9.86

(* Fidelity over a set of (simulated, published) pairs: the geometric
   mean of the ratio's distance from 1, as a percentage.  The log form
   keeps Table 2's 0.01 MB/s cells from dominating the score. *)
let err_pct pairs =
  match pairs with
  | [] -> 0.
  | _ ->
    let logs = List.map (fun (sim, paper) -> Float.abs (log (sim /. paper))) pairs in
    let mean = List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs) in
    100. *. (exp mean -. 1.)
