(* What every workload records per job and per pass, and the answer checks
   the workloads share. *)

module P = Qac_core.Pipeline
module Trace = Qac_diag.Trace
module Problem = Qac_ising.Problem
module Sampler = Qac_anneal.Sampler
module Tiler = Qac_embed.Tiler
module Embedding = Qac_embed.Embedding
module Dimacs = Qac_sat.Dimacs
module Compile = Qac_sat.Compile

let now = Unix.gettimeofday
let span = Trace.with_span_opt

(* --- Configuration shared by the workloads ------------------------------------ *)

let num_reads = 64
let num_sweeps = 200

let sa_solver =
  P.Sa { Qac_anneal.Sa.default_params with Qac_anneal.Sa.num_reads; num_sweeps; seed = 42 }

(* Slack 6 lets the tiler's first block size embed nearly every job, so a
   cold job pays one CMR search rather than a climb through failed sizes. *)
let tiler_params = { Tiler.default_params with Tiler.slack = 6.0 }

let graph () = Qac_chimera.Chimera.create 16

(* --- Per-job record ----------------------------------------------------------- *)

type t = {
  mutable t0 : float;  (** closed loop: the call; open loop: when it was due *)
  mutable t1 : float;
      (** the verified answer, the result held, or when the client stopped
          waiting for one that never came *)
  mutable solved : bool;  (** a verified-correct answer *)
  mutable failed : bool;  (** error, Busy, failed embedding, or no result *)
  mutable logical_vars : int;
  mutable qubits : int;  (** what the sampler saw; 0 if it never ran *)
  mutable max_chain : int;  (** 0 when not embedded *)
  mutable misses : int;  (** embed-cache lookups that missed (a CMR search) *)
  mutable reads : int;
  mutable valid_reads : int;
  mutable broken : int;  (** broken chains summed over reads (traced runs) *)
  mutable chain_reads : int;  (** chains x reads inspected for breaks (traced runs) *)
  mutable refuted : bool;  (** the program called an answer valid that the oracle refutes *)
}

let create () =
  { t0 = nan; t1 = nan; solved = false; failed = false; logical_vars = 0; qubits = 0;
    max_chain = 0; misses = 0; reads = 0; valid_reads = 0; broken = 0;
    chain_reads = 0; refuted = false }

(* One trace per job: every span in it belongs to that job (summary "job"),
   and in closed loops a "job" span encloses the rest. *)
let trace traced id =
  if traced then begin
    let tr = Trace.create () in
    Trace.set_summary tr "job" id;
    Some tr
  end
  else None

(* Span totals over a pass: name -> seconds. *)
type agg = (string, float) Hashtbl.t

let absorb (agg : agg) tr =
  List.iter
    (fun (s : Trace.span) ->
       let t = Option.value (Hashtbl.find_opt agg s.Trace.name) ~default:0.0 in
       Hashtbl.replace agg s.Trace.name (t +. s.Trace.elapsed_seconds))
    (Trace.spans tr)

let total (agg : agg) name = Option.value (Hashtbl.find_opt agg name) ~default:0.0

type pass = {
  jobs : t array;  (** the timed jobs: latency, [solved_frac] *)
  throughput : float * float;  (** jobs answered and jobs solved, per second *)
  burst : t array;
      (** jobs run only for [throughput] (serve-open's capacity burst), checked
          like the rest; empty in the closed loops *)
  spans : agg;  (** empty for untraced passes *)
  hits : int;  (** embed-cache lookups that hit during the pass *)
  misses : int;  (** embed-cache lookups that missed (CMR searches) during the pass *)
  layer : (string * float) list;  (** per-layer values only this workload can measure *)
}

(* One closed-loop client: jobs answered and solved per second of the time
   a job was in flight, the window less the benchmark's bookkeeping between
   jobs. *)
let closed_throughput jobs =
  let busy = Stats.busy_seconds (Array.map (fun j -> (j.t0, j.t1)) jobs) in
  let count f = float_of_int (Array.fold_left (fun acc j -> acc + Bool.to_int (f j)) 0 jobs) in
  (Stats.ratio (count (fun j -> not j.failed)) busy, Stats.ratio (count (fun j -> j.solved)) busy)

(* Counts that must repeat exactly for one seed, traced or not. *)
let fingerprint pass =
  let sum f = Array.fold_left (fun acc j -> acc + f j) 0 pass.jobs in
  let burst_solved = Array.fold_left (fun acc j -> acc + Bool.to_int j.solved) 0 pass.burst in
  [ ("attempted", Array.length pass.jobs);
    ("solved", sum (fun j -> Bool.to_int j.solved));
    ("failed", sum (fun j -> Bool.to_int j.failed));
    ("qubits", sum (fun j -> j.qubits));
    ("logical_vars", sum (fun j -> j.logical_vars));
    ("max_chain", sum (fun j -> j.max_chain));
    ("embed_hits", pass.hits);
    ("embed_misses", pass.misses);
    ("valid_reads", sum (fun j -> j.valid_reads));
    ("burst_attempted", Array.length pass.burst);
    ("burst_solved", burst_solved) ]

(* --- Answer checks ------------------------------------------------------------ *)

(* Every distinct sample is checked; a job is solved when one passes. *)
let count_reads job checks =
  List.iter
    (fun ((s : Sampler.sample), ok) ->
       job.reads <- job.reads + s.Sampler.num_occurrences;
       if ok then job.valid_reads <- job.valid_reads + s.Sampler.num_occurrences)
    checks;
  job.solved <- List.exists snd checks

(* Circuit answers: the program's own netlist check per sample.  The
   benchmark's oracle then recomputes [y] from the port values and checks
   the pins; a sample the program accepts and the oracle rejects refutes
   the program. *)
let circuit_checks t program (resp : Sampler.response) =
  List.map
    (fun (s : Sampler.sample) ->
       let sol = P.solution_of_spins t ~program s.Sampler.spins in
       (s, sol, sol.P.valid && sol.P.assertions_ok && sol.P.pins_respected))
    resp.Sampler.samples

let circuit_refuted (fam, xor_k, pins) checked =
  List.exists
    (fun (_, (sol : P.solution), ok) ->
       ok
       &&
       let port name = List.assoc_opt name sol.P.ports in
       match (port "a", port "b", port "y") with
       | Some a, Some b, Some y ->
         y <> Gen.output fam ~xor_k a b
         || List.exists (fun (name, v) -> port name <> Some v) pins
       | _ -> true)
    checked

let verdicts checked = List.map (fun (s, _, ok) -> (s, ok)) checked

(* SAT answers: the clause check on each decoded assignment. *)
let sat_checks (c : Compile.t) (resp : Sampler.response) =
  List.map
    (fun (s : Sampler.sample) ->
       (s, fst (Dimacs.violations c.Compile.formula (Compile.decode c s.Sampler.spins)) = 0))
    resp.Sampler.samples

(* The compiler's contract — energy of a read with repaired ancillas equals
   the violated weight of its assignment — checked on the best read. *)
let sat_refuted (c : Compile.t) (resp : Sampler.response) =
  match resp.Sampler.samples with
  | [] -> true
  | best :: _ ->
    let spins = Compile.repair c best.Sampler.spins in
    let energy = Problem.energy c.Compile.problem spins in
    let cost = Compile.cost c (Compile.decode c spins) in
    Float.abs (energy -. cost) > 1e-6 *. Float.max 1.0 (Float.abs cost)

(* Broken chains in a placed job's physical samples, as the sampler returned
   them for the compacted problem [Tiler.solve] hands it. *)
let count_broken job (p : Tiler.placed) (phys : Sampler.response) =
  let _, old_of_new = Embedding.compact p.Tiler.physical in
  let chains = Array.length p.Tiler.embedding.Embedding.chains in
  List.iter
    (fun (s : Sampler.sample) ->
       let full = Array.make p.Tiler.physical.Problem.num_vars 1 in
       Array.iteri (fun k old -> full.(old) <- s.Sampler.spins.(k)) old_of_new;
       let u = Embedding.unembed p.Tiler.embedding full in
       let n = s.Sampler.num_occurrences in
       job.broken <- job.broken + (u.Embedding.broken_chains * n);
       job.chain_reads <- job.chain_reads + (chains * n))
    phys.Sampler.samples

(* --- Set-up ------------------------------------------------------------------- *)

(* Set-up is timed once per process, cold: the program's process-wide memos
   (the OR3 gadget, the cell library) are empty when it starts.  run.py
   repeats it in fresh processes ([--setup-only]) and reports the median. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)
