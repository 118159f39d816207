(* The benchmark's own arithmetic: quantiles, the tail-percentile rule,
   and busy time.  Pure functions over float arrays, tested in
   test/test_perfbench.ml. *)

let sorted values =
  let a = Array.copy values in
  Array.sort compare a;
  a

(* Nearest-rank quantile: the ceil(q * n)-th smallest value. *)
let quantile values q =
  let n = Array.length values in
  if n = 0 then 0.0
  else
    let a = sorted values in
    let k = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

let median values = quantile values 0.5

let mean values =
  let n = Array.length values in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 values /. float_of_int n

(* Percentiles the tail may be reported at, highest first. *)
let ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

let min_beyond = 10

(* Samples ranked strictly above the nearest-rank q-quantile. *)
let beyond ~n q = n - int_of_float (Float.ceil (q *. float_of_int n))

(* The highest ladder percentile with at least [min_beyond] samples beyond
   it: a tail read from fewer samples than that is mostly noise. *)
let tail_percentile n = List.find_opt (fun q -> beyond ~n q >= min_beyond) ladder

(* [(q, value)] at the tail percentile; [None] when too few samples. *)
let tail values =
  Option.map (fun q -> (q, quantile values q)) (tail_percentile (Array.length values))

(* Length of the union of [start, stop) intervals: the time during which
   at least one job was in flight, over which a closed loop's throughput
   is taken. *)
let busy_seconds intervals =
  let iv = List.sort compare (Array.to_list intervals) in
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some (s, e) -> acc +. (e -. s))
    | (s, e) :: rest ->
      (match cur with
       | None -> go acc (Some (s, e)) rest
       | Some (cs, ce) when s <= ce -> go acc (Some (cs, Float.max ce e)) rest
       | Some (cs, ce) -> go (acc +. (ce -. cs)) (Some (s, e)) rest)
  in
  go 0.0 None iv

let ratio num den = if den = 0.0 then 0.0 else num /. den
