(* Seeded workload generators.  Every input the benchmark feeds the program
   is a pure function of the seed, so two runs with one seed send identical
   jobs.  Generators emit source text (Verilog, DIMACS) and plain data; they
   know nothing of the compiler, so they are testable on their own. *)

(* --- Circuits ---------------------------------------------------------------- *)

type family = {
  fname : string;
  width : int;  (** bits of inputs [a] and [b] *)
  out_width : int;  (** bits of output [y] *)
  expr : string;  (** Verilog right-hand side over [a] and [b] *)
  eval : int -> int -> int;  (** the same function in OCaml, before masking *)
}

let mask bits v = v land ((1 lsl bits) - 1)

let family fname width out_width expr eval = { fname; width; out_width; expr; eval }

(* Cold-embed cost on C16 (slack 6, one domain) runs from ~25 ms (or4) to
   ~180 ms (mul2), ~120 ms on average, so a run holds about two hundred
   jobs while CMR stays most of each one.  Families with a 0.5 s+ embed
   (3-bit subtract or compare) would be a tenth of the jobs but decide the
   tail from a handful of samples. *)
let cold_families =
  [| family "add2" 2 3 "a + b" ( + );
     family "add2w" 2 2 "a + b" ( + );
     family "sub2" 2 2 "a - b" ( - );
     family "mul2" 2 4 "a * b" ( * );
     family "xor4" 4 4 "a ^ b" ( lxor );
     family "eq3" 3 1 "a == b" (fun a b -> if a = b then 1 else 0);
     family "mix3" 3 3 "(a & b) ^ (a | 3'd2)" (fun a b -> (a land b) lxor (a lor 2));
     family "or4" 4 4 "a | b" ( lor ) |]

type direction = Forward | Backward

type circuit_job = {
  fam : family;
  xor_k : int;  (** constant folded into the output: [y = f(a, b) ^ k] *)
  src : string;
  dir : direction;
  a : int;
  b : int;
  pins : (string * int) list;
      (** forward pins the inputs; backward pins the output to [f(a, b) ^ k] *)
}

let output fam ~xor_k a b = mask fam.out_width (fam.eval a b) lxor xor_k

let source ~name fam ~xor_k =
  Printf.sprintf
    "module %s (a, b, y); input [%d:0] a; input [%d:0] b; output [%d:0] y; \
     assign y = (%s) ^ %d'd%d; endmodule"
    name (fam.width - 1) (fam.width - 1) (fam.out_width - 1) fam.expr fam.out_width xor_k

(* Fisher-Yates with the caller's generator. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Stratified draw: every block of [Array.length families] jobs holds each
   family once.  Block [i] uses the same output constants in every run, so
   a run's set of circuit structures, and with it the CMR work, depends
   only on the job count; the seed draws the order, the direction and the
   pins.  Cold CMR time varies up to 2.5x across constants of one family,
   which would otherwise make the tail a property of the seed. *)
let circuit_jobs ~seed ~blocks =
  let rng = Random.State.make [| seed; 0xc1 |] in
  let nf = Array.length cold_families in
  Array.concat
    (List.init blocks (fun blk ->
         let consts = Random.State.make [| blk; 0xc0 |] in
         let ks = Array.map (fun fam -> Random.State.int consts (1 lsl fam.out_width)) cold_families in
         let order = Array.init nf Fun.id in
         shuffle rng order;
         Array.mapi
           (fun k f ->
              let fam = cold_families.(f) in
              let xor_k = ks.(f) in
              let dir = if Random.State.bool rng then Forward else Backward in
              let a = Random.State.int rng (1 lsl fam.width) in
              let b = Random.State.int rng (1 lsl fam.width) in
              let name = Printf.sprintf "cj%d_%s" ((blk * nf) + k) fam.fname in
              let pins =
                match dir with
                | Forward -> [ ("a", a); ("b", b) ]
                | Backward -> [ ("y", output fam ~xor_k a b) ]
              in
              { fam; xor_k; src = source ~name fam ~xor_k; dir; a; b; pins })
           order))

(* --- Planted 3-SAT ----------------------------------------------------------- *)

let dimacs ~num_vars clauses =
  let b = Buffer.create (16 * (Array.length clauses + 1)) in
  Printf.bprintf b "p cnf %d %d\n" num_vars (Array.length clauses);
  Array.iter
    (fun lits ->
       Array.iter (fun l -> Printf.bprintf b "%d " l) lits;
       Buffer.add_string b "0\n")
    clauses;
  Buffer.contents b

let distinct_triple rng n =
  let a = Random.State.int rng n in
  let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
  let rec pick () =
    let c = Random.State.int rng n in
    if c = a || c = b then pick () else c
  in
  [| a; b; pick () |]

(* Random 3-SAT with a hidden model: clauses the hidden assignment would
   violate are redrawn, so every instance is satisfiable. *)
let planted_cnf rng ~num_vars ~num_clauses =
  let hidden = Array.init num_vars (fun _ -> Random.State.bool rng) in
  let rec clause () =
    let lits =
      Array.map
        (fun v -> if Random.State.bool rng then v + 1 else -(v + 1))
        (distinct_triple rng num_vars)
    in
    if Array.exists (fun l -> (l > 0) = hidden.(abs l - 1)) lits then lits else clause ()
  in
  dimacs ~num_vars (Array.init num_clauses (fun _ -> clause ()))

(* [blocks] stratified blocks over the variable counts [sizes], each block
   holding every size once in seeded order, at 4 clauses per variable.
   Spreading job sizes wider than the host's speed swings keeps the median
   job time moving in proportion to the share of slowed jobs: with jobs of
   one size, per-job times fall into one mode per host phase and the
   median jumps between the modes. *)
let sat_jobs ~seed ~blocks ~sizes =
  let rng = Random.State.make [| seed; 0x5a7 |] in
  Array.concat
    (List.init blocks (fun _ ->
         let order = Array.copy sizes in
         shuffle rng order;
         Array.map (fun n -> planted_cnf rng ~num_vars:n ~num_clauses:(4 * n)) order))

(* A fixed clause skeleton (variable triples with base polarities, every
   clause holding a positive literal) served under per-job variable gauges:
   a gauge flips a variable's sign in every clause, which keeps the
   compiled coupler structure, so all jobs of one skeleton share one
   embedding.  Setting every variable whose gauge bit is clear satisfies
   every clause, so each instance is satisfiable. *)
type skeleton = { sk_vars : int; sk_clauses : int array array (* signed, 1-based *) }

let skeleton ~seed ~num_vars ~num_clauses =
  let rng = Random.State.make [| seed; 0x5e1 |] in
  let rec clause () =
    let lits =
      Array.map
        (fun v -> if Random.State.bool rng then v + 1 else -(v + 1))
        (distinct_triple rng num_vars)
    in
    if Array.exists (fun l -> l > 0) lits then lits else clause ()
  in
  { sk_vars = num_vars; sk_clauses = Array.init num_clauses (fun _ -> clause ()) }

(* Gauge [g] as a bit mask: bit v set flips variable v + 1. *)
let gauged sk g =
  dimacs ~num_vars:sk.sk_vars
    (Array.map
       (Array.map (fun l -> if (g lsr (abs l - 1)) land 1 = 1 then -l else l))
       sk.sk_clauses)

(* --- Open-loop arrivals ------------------------------------------------------ *)

(* [n] arrival offsets in [0, seconds): a Poisson process conditioned on its
   count, i.e. sorted uniform draws.  Fixing the count fixes the tail
   percentile the run can report. *)
let arrivals ~seed ~n ~seconds =
  let rng = Random.State.make [| seed; 0xa11 |] in
  let due = Array.init n (fun _ -> Random.State.float rng seconds) in
  Array.sort compare due;
  due

(* --- Serving mix ------------------------------------------------------------- *)

type serve_job =
  | Circuit of { structure : int; pins : (string * int) list }
  | Sat of { structure : int; gauge : int }

(* Every pin assignment of a structure: forward over all inputs, backward
   over every output value some input reaches. *)
let pin_space fam ~xor_k =
  let inputs = 1 lsl fam.width in
  let forward =
    List.concat_map (fun a -> List.init inputs (fun b -> [ ("a", a); ("b", b) ]))
      (List.init inputs Fun.id)
  in
  let outputs =
    List.sort_uniq compare
      (List.concat_map (fun a -> List.init inputs (fun b -> output fam ~xor_k a b))
         (List.init inputs Fun.id))
  in
  Array.of_list (forward @ List.map (fun y -> [ ("y", y) ]) outputs)

(* Stratified blocks of [2 * num_circuits] jobs: each circuit structure
   once, then as many SAT jobs cycling over the skeletons.  Each structure
   walks its own seeded permutation of its input space, so one job content
   recurs only after the whole space is used — far more than the handful of
   jobs in flight at once, so no two live jobs coalesce. *)
let serve_jobs ~seed ~n ~circuits ~skeletons =
  let rng = Random.State.make [| seed; 0x5e7 |] in
  let nc = Array.length circuits and ns = Array.length skeletons in
  let perm len =
    let p = Array.init len Fun.id in
    shuffle rng p;
    p
  in
  let cspace = Array.map (fun (fam, xor_k) -> pin_space fam ~xor_k) circuits in
  let cperm = Array.map (fun s -> perm (Array.length s)) cspace in
  let sperm = Array.map (fun sk -> perm (1 lsl sk.sk_vars)) skeletons in
  let cnext = Array.make nc 0 and snext = Array.make ns 0 in
  let block = 2 * nc in
  let out = ref [] in
  while List.length !out < n do
    let slots = Array.init block Fun.id in
    shuffle rng slots;
    Array.iter
      (fun slot ->
         let job =
           if slot < nc then begin
             let k = cnext.(slot) in
             cnext.(slot) <- k + 1;
             let space = cspace.(slot) in
             Circuit
               { structure = slot;
                 pins = space.(cperm.(slot).(k mod Array.length space)) }
           end
           else begin
             let s = (slot - nc) mod ns in
             let k = snext.(s) in
             snext.(s) <- k + 1;
             let p = sperm.(s) in
             Sat { structure = s; gauge = p.(k mod Array.length p) }
           end
         in
         out := job :: !out)
      slots
  done;
  Array.sub (Array.of_list (List.rev !out)) 0 n
