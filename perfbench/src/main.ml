(* Layered benchmark: three workloads from one process, each layer timed
   from outside by wrapping the benchmark's own calls into it.  README.md
   says why each workload exists and which layer metric should move which
   end-to-end metric.

   main.exe --workload circuit-cold|sat-logical|serve-open --seed N
            --seconds S --trace 0|1 [--commit C]
   main.exe --workload W --setup-only

   The last stdout line is the result object.  The line before it is the
   run record; --trace 1 also prints the per-layer self-time table.  State
   that must outlive a run (the determinism fingerprints and the run
   history) lives in .bench_state/ under the working directory. *)

let state_dir = ".bench_state"

module J = Qac_serve.Protocol

type workload = {
  setup_s : float;  (** this process's set-up, timed cold *)
  run : traced:bool -> Job.pass;
  finish : traced:bool -> (string * bool) list * (string * float) list;
      (** correctness gates, and per-layer values measured after the passes *)
  stop : unit -> unit;
  domains : int;  (** OCaml domains the run uses; one of them computes *)
}

let no_finish ~traced:_ = ([], [])

let workload name ~seed ~seconds =
  match name with
  | "circuit-cold" ->
    let setup_s, run = Closed.circuit_cold ~seed ~seconds in
    { setup_s; run; finish = no_finish; stop = ignore; domains = 1 }
  | "sat-logical" ->
    let setup_s, run = Closed.sat_logical ~seed ~seconds in
    { setup_s; run; finish = no_finish; stop = ignore; domains = 1 }
  | "serve-open" ->
    let setup_s, run, finish, stop = Serving.serve_open ~seed ~seconds in
    (* the client, the server loop and the shard's scheduler *)
    { setup_s; run; finish; stop; domains = 3 }
  | w -> invalid_arg ("unknown workload " ^ w)

(* --- Metrics ------------------------------------------------------------------ *)

type e2e = {
  p50_ms : float;
  tail_ms : float;
  tail_q : float;
  jobs_per_s : float;
  goodput : float;
  solved_frac : float;
  qubits_mean : float;
}

(* Latency over every job, each timed to its answer or, unanswered, to when
   its client stopped waiting; failed jobs also count against
   [solved_frac].  Throughput is the workload's own: the window of one
   closed-loop client, or serve-open's capacity burst. *)
let end_to_end (pass : Job.pass) =
  let jobs = Array.to_list pass.Job.jobs in
  let lat = Array.of_list (List.map (fun (j : Job.t) -> j.Job.t1 -. j.Job.t0) jobs) in
  let solved = List.length (List.filter (fun (j : Job.t) -> j.Job.solved) jobs) in
  let tail_q, tail = Option.value (Stats.tail lat) ~default:(1.0, Stats.quantile lat 1.0) in
  let ran = List.filter (fun (j : Job.t) -> j.Job.qubits > 0) jobs in
  let jobs_per_s, goodput = pass.Job.throughput in
  { p50_ms = 1000.0 *. Stats.median lat;
    tail_ms = 1000.0 *. tail;
    tail_q;
    jobs_per_s;
    goodput;
    solved_frac = float_of_int solved /. float_of_int (max 1 (List.length jobs));
    qubits_mean =
      Stats.mean (Array.of_list (List.map (fun (j : Job.t) -> float_of_int j.Job.qubits) ran)) }

let e2e_metrics ~setup_s e =
  [ ("setup_s", "s", setup_s);
    ("job_p50_ms", "ms", e.p50_ms);
    ("job_tail_ms", "ms", e.tail_ms);
    ("jobs_per_s", "1/s", e.jobs_per_s);
    ("goodput_jobs_s", "1/s", e.goodput);
    ("solved_frac", "frac", e.solved_frac);
    ("qubits_mean", "count", e.qubits_mean) ]

(* Units of the per-layer metrics, in report order.  A layer a workload
   never runs reads 0 (no embedding in sat-logical, no server in the closed
   loops). *)
let layer_units =
  [ ("compile.ms_per_job", "ms"); ("compile.logical_vars_mean", "count");
    ("embed.cmr_ms_per_miss", "ms"); ("embed.hit_frac", "frac");
    ("embed.misses", "count"); ("embed.tile_ms_per_job", "ms");
    ("embed.max_chain_mean", "count"); ("embed.deferrals_per_job", "count");
    ("solve.ms_per_job", "ms"); ("solve.spin_updates_per_s", "1/s");
    ("solve.valid_read_frac", "frac"); ("unembed.ms_per_job", "ms");
    ("unembed.broken_chain_frac", "frac"); ("verify.ms_per_job", "ms");
    ("job.other_ms_per_job", "ms"); ("serve.queue_wait_ms_p50", "ms");
    ("serve.queue_wait_ms_tail", "ms"); ("serve.batch_jobs_mean", "count");
    ("serve.codec_us_per_job", "us"); ("serve.busy_frac", "frac");
    ("loadgen.lag_ms_tail", "ms"); ("serve.knee_jobs_s", "1/s");
    ("trace.accounted_frac", "frac"); ("trace.overhead_p50_frac", "frac");
    ("trace.overhead_jobs_s_frac", "frac") ]

(* Self time per layer from the traced pass's spans, as disjoint shares of
   the job time.  Closed loops: the sampler call nests in "tiler-solve"
   (circuit-cold) and every other span is a direct child of its "job" span;
   "other" is the job span's own time.  serve-open: a job's latency splits
   into generator lateness ("lag"), the submit exchange, the server's queue
   wait and sampler time, and "other" (tiling, batch mates, and the poll
   that noticed completion); its client-side polls overlap the server's
   time and are reported apart.  Returns the rows and the job time. *)
let self_times (pass : Job.pass) =
  let t = Job.total pass.Job.spans in
  let nested_solve = if t "tiler-solve" > 0.0 then t "solve" else 0.0 in
  let closed = t "job" > 0.0 in
  let compile = t "compile" +. t "assemble" +. t "parse" +. t "sat-compile" in
  let submit_codec = t "submit-encode" +. t "submit-decode" in
  let rows =
    [ ("lag", t "lag");
      ("submit-codec", submit_codec);
      ("submit-wire", t "submit" -. submit_codec);
      ("queue", t "queue");
      ("compile", if closed then compile else 0.0);
      ("embed", t "tile");
      ("solve", t "solve");
      ("unembed", t "tiler-solve" -. nested_solve);
      ("verify", if closed then t "verify" else 0.0) ]
  in
  let base = if closed then t "job" else t "latency" in
  (rows @ [ ("other", base -. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 rows) ], base)

let layer_metrics ~untraced ~(traced : Job.pass) extra =
  let jobs = traced.Job.jobs in
  let n = float_of_int (max 1 (Array.length jobs)) in
  let sum f = Array.fold_left (fun acc j -> acc +. f j) 0.0 jobs in
  let self, base = self_times traced in
  let ms name = 1000.0 *. List.assoc name self /. n in
  let embedded = List.filter (fun (j : Job.t) -> j.Job.max_chain > 0) (Array.to_list jobs) in
  let t = Job.total traced.Job.spans in
  let e_u = end_to_end untraced and e_t = end_to_end traced in
  let generic =
    [ ("compile.ms_per_job",
       1000.0 *. (t "compile" +. t "assemble" +. t "parse" +. t "sat-compile") /. n);
      ("compile.logical_vars_mean", sum (fun j -> float_of_int j.Job.logical_vars) /. n);
      ("embed.hit_frac",
       Stats.ratio (float_of_int traced.Job.hits)
         (float_of_int (traced.Job.hits + traced.Job.misses)));
      ("embed.misses", float_of_int traced.Job.misses);
      ("embed.tile_ms_per_job", ms "embed");
      ("embed.max_chain_mean",
       Stats.mean
         (Array.of_list (List.map (fun (j : Job.t) -> float_of_int j.Job.max_chain) embedded)));
      ("solve.ms_per_job", ms "solve");
      ("solve.spin_updates_per_s",
       Stats.ratio
         (float_of_int (Job.num_reads * Job.num_sweeps) *. sum (fun j -> float_of_int j.Job.qubits))
         (t "solve"));
      ("solve.valid_read_frac",
       Stats.ratio (sum (fun j -> float_of_int j.Job.valid_reads)) (sum (fun j -> float_of_int j.Job.reads)));
      ("unembed.ms_per_job", ms "unembed");
      ("unembed.broken_chain_frac",
       Stats.ratio (sum (fun j -> float_of_int j.Job.broken)) (sum (fun j -> float_of_int j.Job.chain_reads)));
      ("verify.ms_per_job", 1000.0 *. t "verify" /. n);
      ("job.other_ms_per_job", ms "other");
      ("trace.accounted_frac", Stats.ratio (base -. List.assoc "other" self) base);
      ("trace.overhead_p50_frac", Stats.ratio e_t.p50_ms e_u.p50_ms -. 1.0);
      ("trace.overhead_jobs_s_frac", Stats.ratio e_t.jobs_per_s e_u.jobs_per_s -. 1.0) ]
  in
  let overrides = traced.Job.layer @ extra in
  List.map
    (fun (name, unit) ->
       let v =
         match List.assoc_opt name overrides with
         | Some v -> v
         | None -> Option.value (List.assoc_opt name generic) ~default:0.0
       in
       (name, unit, v))
    layer_units

(* --- Output ------------------------------------------------------------------- *)

let num v = J.Num (if Float.is_finite v then v else 0.0)

let metrics_json ms =
  J.Obj (List.map (fun (name, unit, v) -> (name, J.Obj [ ("value", num v); ("unit", J.Str unit) ])) ms)

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Counts that must repeat for a seed are stored per (workload, seed, job
   count, binary); a later run that disagrees is a failed run. *)
let check_determinism ~workload ~seed ~jobs fp =
  let digest = Digest.to_hex (Digest.file Sys.executable_name) in
  let path =
    Filename.concat state_dir (Printf.sprintf "det-%s-%d-%d-%s" workload seed jobs digest)
  in
  let text = String.concat "\n" (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) fp) in
  if Sys.file_exists path then read_file path = text
  else begin
    write_file path text;
    true
  end

let main workload_name seed seconds traced commit =
  ensure_dir state_dir;
  let w = workload workload_name ~seed ~seconds in
  let untraced, traced_pass, (gates, extra) =
    Fun.protect ~finally:w.stop (fun () ->
        let untraced = w.run ~traced:false in
        let traced_pass = if traced then Some (w.run ~traced:true) else None in
        (untraced, traced_pass, w.finish ~traced))
  in
  let fp = Job.fingerprint untraced in
  let jobs = Array.length untraced.Job.jobs in
  let all_jobs (p : Job.pass) = Array.append p.Job.jobs p.Job.burst in
  let refuted =
    List.exists (fun p -> Array.exists (fun (j : Job.t) -> j.Job.refuted) (all_jobs p))
      (untraced :: Option.to_list traced_pass)
  in
  let e = end_to_end untraced in
  let gates =
    [ ("oracle", not refuted);
      ("some-solved", e.solved_frac > 0.0);
      ("determinism", check_determinism ~workload:workload_name ~seed ~jobs fp);
      ("traced=untraced",
       match traced_pass with Some p -> Job.fingerprint p = fp | None -> true) ]
    @ gates
  in
  let correct = List.for_all snd gates in
  let reported = all_jobs (Option.value traced_pass ~default:untraced) in
  let failed = Array.fold_left (fun acc (j : Job.t) -> acc + Bool.to_int j.Job.failed) 0 reported in
  let metrics =
    match traced_pass with
    | None -> e2e_metrics ~setup_s:w.setup_s e
    | Some t -> layer_metrics ~untraced ~traced:t extra
  in
  (match traced_pass with
   | Some t ->
     let rows, base = self_times t in
     Printf.printf "self time per layer (traced pass, %d jobs, %.2f s of job time):\n" jobs base;
     List.iter
       (fun (layer, s) ->
          if s <> 0.0 then
            Printf.printf "  %-12s %9.3f ms/job  %5.1f%%\n" layer
              (1000.0 *. s /. float_of_int jobs) (100.0 *. Stats.ratio s base))
       rows;
     let polls = Job.total t.Job.spans "poll" in
     if polls > 0.0 then
       Printf.printf "  %-12s %9.3f ms/job  (client polling, overlaps queue and solve)\n" "polls"
         (1000.0 *. polls /. float_of_int jobs)
   | None -> ());
  List.iter (fun (g, ok) -> if not ok then Printf.printf "gate failed: %s\n" g) gates;
  let record =
    J.json_to_string
      (J.Obj
         [ ("workload", J.Str workload_name);
           ("seed", num (float_of_int seed));
           ("trace", J.Bool traced);
           ("cores", num (float_of_int (Domain.recommended_domain_count ())));
           ("domains", num (float_of_int w.domains));
           ("ocaml", J.Str Sys.ocaml_version);
           ("commit", J.Str commit);
           ("jobs_timed", num (float_of_int jobs));
           ("tail_percentile", num (100.0 *. e.tail_q));
           ("setup_s", num w.setup_s);
           ("gates", J.Obj (List.map (fun (g, ok) -> (g, J.Bool ok)) gates));
           ("counts", J.Obj (List.map (fun (k, v) -> (k, num (float_of_int v))) fp));
           ("metrics", metrics_json metrics) ])
  in
  Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644
    (Filename.concat state_dir "history.jsonl")
    (fun oc -> output_string oc (record ^ "\n"));
  Printf.printf "record %s\n" record;
  print_endline
    (J.json_to_string
       (J.Obj
          [ ("correct", J.Bool correct);
            ("attempted", num (float_of_int (Array.length reported)));
            ("failed", num (float_of_int failed));
            ("metrics", metrics_json metrics) ]))

(* One cold set-up in this process, torn down again; run.py repeats it in
   fresh processes for the median [setup_s]. *)
let setup_only workload_name =
  ensure_dir state_dir;
  let w = workload workload_name ~seed:0 ~seconds:1.0 in
  w.stop ();
  print_endline (J.json_to_string (J.Obj [ ("setup_s", num w.setup_s) ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0
  and commit = ref "unknown" and setup = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "circuit-cold | sat-logical | serve-open");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "nominal measuring time per pass");
      ("--trace", Arg.Set_int trace, "1: traced pass and per-layer metrics");
      ("--commit", Arg.Set_string commit, "source revision for the run record");
      ("--setup-only", Arg.Set setup, "time one cold set-up and print it") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W [--seed N --seconds S --trace 0|1 | --setup-only]";
  if !setup then setup_only !workload else main !workload !seed !seconds (!trace = 1) !commit
