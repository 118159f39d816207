(* The two closed-loop workloads: one client, one job at a time, each job
   timed from the call to the verified answer. *)

open Job
module Cache = Qac_embed.Cache
module Diag = Qac_diag.Diag
module Assemble = Qac_qmasm.Assemble

(* Job counts scale with --seconds at these nominal rates, measured on a
   2-core x86-64 host, so a run times about --seconds of work.  A fixed
   count per run fixes the job set (whose counts then repeat exactly per
   seed) and the percentile the tail is read at. *)
let cold_jobs_per_s = 7.7
let sat_jobs_per_s = 13.0

(* Planted 3-SAT at 4 clauses per variable, 36 to 64 variables (180 to 320
   spins after compilation, 250 on average); 64 x 200 SA solves about two
   in three. *)
let sat_sizes = [| 36; 40; 44; 48; 52; 56; 60; 64 |]

let failure = function
  | Diag.Error _ | Invalid_argument _ | Failure _ | Not_found -> true
  | _ -> false

(* --- circuit-cold ------------------------------------------------------------ *)

(* A user's first run of a new program: compile from source, embed into an
   empty cache with no store, solve, unembed, verify.  The sampler call
   nests in [Tiler.solve], whose self time is compaction and unembedding. *)
let circuit_job ~graph ~traced id (cj : Gen.circuit_job) =
  let job = Job.create () in
  let tr = Job.trace traced id in
  let phys = ref None and placed = ref None and hits = ref 0 in
  job.t0 <- now ();
  (try
     span tr "job" (fun () ->
         let t = span tr "compile" (fun () -> P.compile cj.Gen.src) in
         let program = span tr "assemble" (fun () -> P.assemble_with_pins ~pins:cj.Gen.pins t) in
         let problem = program.Assemble.problem in
         job.logical_vars <- problem.Problem.num_vars;
         let cache = Cache.create () in
         let tiling =
           span tr "tile" (fun () -> Tiler.tile ~params:tiler_params ~cache graph [| problem |])
         in
         let st = Cache.stats cache in
         hits := st.Cache.hits;
         job.misses <- st.Cache.misses;
         match tiling.Tiler.outcomes.(0) with
         | Tiler.Placed p ->
           placed := Some p;
           job.max_chain <- Embedding.max_chain_length p.Tiler.embedding;
           let solver ~deadline q =
             span tr "solve" (fun () ->
                 job.qubits <- q.Problem.num_vars;
                 let r = P.dispatch_solver ?deadline sa_solver q in
                 if traced then phys := Some r;
                 r)
           in
           let resp = span tr "tiler-solve" (fun () -> snd (List.hd (Tiler.solve ~solver tiling))) in
           let checked = span tr "verify" (fun () -> circuit_checks t program resp) in
           count_reads job (verdicts checked);
           job.refuted <-
             circuit_refuted (cj.Gen.fam, cj.Gen.xor_k, cj.Gen.pins) checked
         | Tiler.Deferred | Tiler.Failed _ -> job.failed <- true)
   with e when failure e -> job.failed <- true);
  job.t1 <- now ();
  (match (!placed, !phys) with Some p, Some r -> count_broken job p r | _ -> ());
  (job, tr, !hits)

(* Tile time of the jobs that searched (missed), for CMR ms per miss. *)
let miss_tile_seconds (jobs : Job.t array) traces =
  Array.fold_left ( +. ) 0.0
    (Array.mapi
       (fun i tr ->
          match tr with
          | Some tr when jobs.(i).misses > 0 ->
            Option.fold ~none:0.0 ~some:(fun (s : Trace.span) -> s.Trace.elapsed_seconds)
              (Trace.find_span tr "tile")
          | _ -> 0.0)
       traces)

(* Set-up: the Chimera graph, and one compile so that the program builds
   its process-wide cell library before the first timed job.  The jobs are
   generated in [run], outside both set-up and job intervals. *)
let circuit_cold ~seed ~seconds =
  let blocks =
    max 2
      (int_of_float
         (Float.round (seconds *. cold_jobs_per_s /. float_of_int (Array.length Gen.cold_families))))
  in
  let warm = (Gen.circuit_jobs ~seed:0 ~blocks:1).(0) in
  let graph, setup_s =
    timed (fun () ->
        ignore (P.assemble_with_pins ~pins:warm.Gen.pins (P.compile warm.Gen.src));
        graph ())
  in
  let run ~traced =
    let specs = Gen.circuit_jobs ~seed ~blocks in
    let spans = Hashtbl.create 16 in
    let results = Array.mapi (fun i cj -> circuit_job ~graph ~traced i cj) specs in
    let jobs = Array.map (fun (j, _, _) -> j) results in
    let traces = Array.map (fun (_, tr, _) -> tr) results in
    Array.iter (Option.iter (absorb spans)) traces;
    let hits = Array.fold_left (fun acc (_, _, h) -> acc + h) 0 results in
    let misses = Array.fold_left (fun acc (j : Job.t) -> acc + j.misses) 0 jobs in
    let layer =
      [ ("embed.cmr_ms_per_miss",
         1000.0 *. Stats.ratio (miss_tile_seconds jobs traces) (float_of_int misses)) ]
    in
    { jobs; throughput = closed_throughput jobs; burst = [||]; spans; hits; misses; layer }
  in
  (setup_s, run)

(* --- sat-logical ------------------------------------------------------------- *)

(* DIMACS text -> parse -> clause compile -> SA on the logical problem ->
   decode and clause check.  Nothing is embedded: the sampler kernel is the
   work. *)
let sat_job ~traced id text =
  let job = Job.create () in
  let tr = Job.trace traced id in
  job.t0 <- now ();
  (try
     span tr "job" (fun () ->
         let f = span tr "parse" (fun () -> Dimacs.parse text) in
         let c = span tr "sat-compile" (fun () -> Compile.compile f) in
         let problem = c.Compile.problem in
         job.logical_vars <- problem.Problem.num_vars;
         job.qubits <- problem.Problem.num_vars;
         let resp = span tr "solve" (fun () -> P.dispatch_solver sa_solver problem) in
         let checks = span tr "verify" (fun () -> sat_checks c resp) in
         count_reads job checks;
         job.refuted <- sat_refuted c resp)
   with e when failure e -> job.failed <- true);
  job.t1 <- now ();
  (job, tr)

(* Set-up: the OR3 gadget's LP derivation, which the program memoizes per
   process. *)
let sat_logical ~seed ~seconds =
  let blocks =
    max 3
      (int_of_float
         (Float.round (seconds *. sat_jobs_per_s /. float_of_int (Array.length sat_sizes))))
  in
  let (), setup_s = timed (fun () -> ignore (Compile.clause_gadget ())) in
  let run ~traced =
    let texts = Gen.sat_jobs ~seed ~blocks ~sizes:sat_sizes in
    let spans = Hashtbl.create 8 in
    let jobs =
      Array.mapi
        (fun i text ->
           let job, tr = sat_job ~traced i text in
           Option.iter (absorb spans) tr;
           job)
        texts
    in
    { jobs; throughput = closed_throughput jobs; burst = [||]; spans; hits = 0; misses = 0;
      layer = [] }
  in
  (setup_s, run)
