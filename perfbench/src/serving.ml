(* serve-open: an open-loop client on one Unix-socket connection to an
   in-process Server + Shard pool.  Jobs are due on a seeded schedule at a
   fixed rate; each is timed from when it was due to when the client holds
   its result.  Answers are checked after the window, so checking never
   delays the schedule. *)

open Job
module Cache = Qac_embed.Cache
module Assemble = Qac_qmasm.Assemble
module Serve = Qac_serve.Serve
module Shard = Qac_serve.Shard
module Server = Qac_serve.Server
module Protocol = Qac_serve.Protocol

(* Well below the knee (over 60 jobs/s on a 2-core x86-64 host), so host
   speed swings move latency, not whether the queue is stable. *)
let rate = 15.0
let poll_interval = 0.001

(* The knee sweep (traced runs only): a few higher rates, each offered for
   [knee_step_s]; a rate passes when every job completes, the tail stays
   under [knee_limit_s], and latency does not climb through the step. *)
let knee_factors = [ 2.0; 4.0; 8.0 ]
let knee_step_s = 3.0
let knee_limit_s = 0.25

(* A small fixed set of structures, not drawn from the seed, so set-up
   embeds the same six problems in every run (well under the 64-entry
   embed cache).  Circuits go out as precompiled [submit]s, SAT skeletons
   as DIMACS [submit_sat]s under a fresh gauge per job. *)
let circuits =
  Array.map
    (fun name -> (List.find (fun f -> f.Gen.fname = name) (Array.to_list Gen.cold_families), 0))
    [| "add2"; "mul2"; "xor4"; "eq3" |]

let skeletons =
  [| Gen.skeleton ~seed:1 ~num_vars:6 ~num_clauses:12;
     Gen.skeleton ~seed:2 ~num_vars:6 ~num_clauses:12 |]

let socket_path = Filename.concat ".bench_state" "serve.sock"

(* The solver the pool runs: the stock SA, timed from outside.  It runs on
   the shard's domain, hence the lock. *)
type tally = {
  lock : Mutex.t;
  mutable seconds : float;
}

let tallied tally ~deadline q =
  let t0 = now () in
  let r = P.dispatch_solver ?deadline sa_solver q in
  let dt = now () -. t0 in
  Mutex.lock tally.lock;
  tally.seconds <- tally.seconds +. dt;
  Mutex.unlock tally.lock;
  r

type service = {
  pool : Shard.t;
  fd : Unix.file_descr;
  domain : (int * Serve.result) list Domain.t;  (** the server loop *)
  tally : tally;
  programs : P.t array;  (** compiled circuit structures *)
}

(* One request/reply exchange with the codec in its own spans: [name]-encode
   and [name]-decode nest in the request's span, whose rest is wire and
   server. *)
let rpc tr name fd req =
  span tr name (fun () ->
      let payload =
        span tr (name ^ "-encode") (fun () ->
            Protocol.json_to_string (Protocol.request_to_json req))
      in
      Protocol.write_frame fd payload;
      match Protocol.read_frame fd with
      | None -> raise (Protocol.Protocol_error "server closed the connection")
      | Some reply ->
        span tr (name ^ "-decode") (fun () ->
            Protocol.reply_of_json (Protocol.json_of_string reply)))

let rec await fd ticket =
  match Protocol.call fd (Protocol.Poll ticket) with
  | Protocol.Pending ->
    Unix.sleepf poll_interval;
    await fd ticket
  | Protocol.Completed r -> r
  | _ -> failwith "serve-open: warm-up poll failed"

let stop svc =
  (try ignore (Protocol.call svc.fd Protocol.Shutdown) with _ -> ());
  (try Unix.close svc.fd with Unix.Unix_error _ -> ());
  ignore (Domain.join svc.domain)

(* The inputs set-up sends, generated before it is timed: one source per
   circuit structure and one DIMACS text per SAT skeleton. *)
let warm_inputs () =
  ( Array.mapi
      (fun k (fam, xor_k) ->
         Gen.source ~name:(Printf.sprintf "sv%d_%s" k fam.Gen.fname) fam ~xor_k)
      circuits,
    Array.map (fun sk -> Gen.gauged sk 0) skeletons )

(* Set-up: pool and server start, the OR3 gadget, the circuit compiles and
   one warm-up job per structure, so the timed window runs with every
   embedding cached. *)
let start (sources, dimacs) =
  let sockaddr = Unix.ADDR_UNIX socket_path in
  let tally = { lock = Mutex.create (); seconds = 0.0 } in
  let pool =
    Shard.create ~num_shards:1 ~num_threads:1 ~tiler_params ~solver:(tallied tally)
      ~graph:(graph ()) ()
  in
  let server = Server.create ~pool ~sockaddr () in
  let domain = Domain.spawn (fun () -> Server.run server) in
  let fd = Protocol.connect sockaddr in
  ignore (Compile.clause_gadget ());
  let programs = Array.map P.compile sources in
  let warm =
    Array.to_list
      (Array.mapi
         (fun k t ->
            Protocol.Submit
              { Serve.id = Printf.sprintf "warm-c%d" k;
                problem = (P.assemble_with_pins t).Assemble.problem;
                timeout_ms = None })
         programs)
    @ Array.to_list
        (Array.mapi
           (fun k text ->
              Protocol.Submit_sat { id = Printf.sprintf "warm-s%d" k; dimacs = text; timeout_ms = None })
           dimacs)
  in
  List.iter
    (fun req ->
       match Protocol.call fd req with
       | Protocol.Submitted { ticket; _ } -> ignore (await fd ticket)
       | _ -> failwith "serve-open: warm-up submit refused")
    warm;
  { pool; fd; domain; tally; programs }

type prepared =
  | Pc of { structure : int; pins : (string * int) list; program : Assemble.t }
  | Ps of { structure : int; text : string }

let structure_key = function Pc { structure; _ } -> structure | Ps { structure; _ } -> -1 - structure

(* Client-side preparation before a window: assemble each circuit job with
   its pins, write each SAT job's DIMACS text. *)
let prepare svc trs mix =
  Array.mapi
    (fun i m ->
       match m with
       | Gen.Circuit { structure; pins } ->
         let program =
           span trs.(i) "assemble" (fun () -> P.assemble_with_pins ~pins svc.programs.(structure))
         in
         Pc { structure; pins; program }
       | Gen.Sat { structure; gauge } -> Ps { structure; text = Gen.gauged skeletons.(structure) gauge })
    mix

let request i = function
  | Pc { program; _ } ->
    Protocol.Submit
      { Serve.id = string_of_int i; problem = program.Assemble.problem; timeout_ms = None }
  | Ps { text; _ } -> Protocol.Submit_sat { id = string_of_int i; dimacs = text; timeout_ms = None }

type window = {
  prepared : prepared array;
  recs : (Serve.result, string) result Loadgen.record array;
  busy : int;
  give_up : float;  (** offset at which the client stops waiting *)
}

let withdraw svc recs ticket =
  Array.iteri
    (fun i (r : _ Loadgen.record) ->
       if r.Loadgen.accepted && not (Loadgen.is_complete r) then
         ignore (Protocol.call svc.fd (Protocol.Cancel (ticket i))))
    recs

(* Drive one open-loop window over the socket.  Jobs still open at
   [give_up] are withdrawn so the pool drains. *)
let open_window svc trs prepared ~due ~give_up =
  let busy = ref 0 and tickets = Hashtbl.create 64 in
  let submit i =
    match rpc trs.(i) "submit" svc.fd (request i prepared.(i)) with
    | Protocol.Submitted { ticket; _ } ->
      Hashtbl.replace tickets i ticket;
      Some (i, ticket)
    | Protocol.Busy _ ->
      incr busy;
      None
    | _ -> None
  in
  let poll (i, ticket) =
    match rpc trs.(i) "poll" svc.fd (Protocol.Poll ticket) with
    | Protocol.Pending -> None
    | Protocol.Completed r -> Some (Ok r)
    | Protocol.Error e -> Some (Error e)
    | _ -> Some (Error "unexpected poll reply")
  in
  let recs = Loadgen.run ~now ~sleep:Unix.sleepf ~poll_interval ~give_up ~due ~submit ~poll in
  withdraw svc recs (Hashtbl.find tickets);
  { prepared; recs; busy = !busy; give_up }

let served_response (r : _ Loadgen.record) =
  match r.Loadgen.result with
  | Some (Ok ({ Serve.status = Serve.Done; response = Some resp; _ } : Serve.result)) -> Some resp
  | _ -> None

(* Answers are checked after the window; a SAT job is decoded by compiling
   its DIMACS locally, as any client holding the text would. *)
let check_answers svc trs w =
  Array.mapi
    (fun i (r : _ Loadgen.record) ->
       let job = Job.create () in
       let answered = served_response r <> None in
       job.t0 <- r.Loadgen.due;
       job.t1 <- r.Loadgen.due +. Loadgen.waited ~give_up:w.give_up ~answered r;
       let tr = trs.(i) in
       (match (w.prepared.(i), served_response r) with
        | _, None -> job.failed <- true
        | Pc { structure; pins; program }, Some resp ->
          job.logical_vars <- program.Assemble.problem.Problem.num_vars;
          let fam, xor_k = circuits.(structure) in
          let checked =
            span tr "verify" (fun () -> circuit_checks svc.programs.(structure) program resp)
          in
          count_reads job (verdicts checked);
          job.refuted <- circuit_refuted (fam, xor_k, pins) checked
        | Ps { text; _ }, Some resp ->
          let c = span tr "parse" (fun () -> Dimacs.parse text) in
          let c = span tr "sat-compile" (fun () -> Compile.compile c) in
          job.logical_vars <- c.Compile.problem.Problem.num_vars;
          count_reads job (span tr "verify" (fun () -> sat_checks c resp));
          job.refuted <- sat_refuted c resp);
       job)
    w.recs

let shard_totals pool =
  Array.fold_left
    (fun (h, m, d, b, j) (s : Shard.shard_stats) ->
       ( h + s.Shard.cache.Cache.hits,
         m + s.Shard.cache.Cache.misses,
         d + s.Shard.serve.Serve.deferrals,
         b + s.Shard.serve.Serve.batches,
         j + s.Shard.serve.Serve.jobs_done ))
    (0, 0, 0, 0, 0) (Shard.stats pool)

let solve_seconds t =
  Mutex.lock t.lock;
  let v = t.seconds in
  Mutex.unlock t.lock;
  v

let latencies w =
  Array.of_list
    (List.filter_map
       (fun r -> if served_response r <> None then Some (Loadgen.latency r) else None)
       (Array.to_list w.recs))

(* Capacity, for [jobs_per_s] and [goodput_jobs_s]: [burst_jobs] distinct
   jobs submitted back to back, then collected in submission order with one
   poll in flight, so the client's polling stays light; jobs answered and
   solved per second of the makespan.  The open window's latency, at a rate
   far below the knee, would not move when the knee does.  The host's speed
   drifts in phases of seconds, so a pass runs half its bursts before the
   window and half after it. *)
let burst_jobs = 120
let burst_rounds = 4

let burst svc ~seed ~traced =
  let mix = Gen.serve_jobs ~seed ~n:burst_jobs ~circuits ~skeletons in
  let trs = Array.init burst_jobs (Job.trace traced) in
  let prepared = prepare svc trs mix in
  let give_up = 30.0 in
  let t0 = now () in
  let clock () = now () -. t0 in
  let tickets = Array.make burst_jobs 0 in
  let recs =
    Array.mapi
      (fun i p ->
         let r =
           { Loadgen.due = 0.0; sent = clock (); accepted = false; completed = nan; result = None }
         in
         (match rpc trs.(i) "submit" svc.fd (request i p) with
          | Protocol.Submitted { ticket; _ } ->
            r.Loadgen.accepted <- true;
            tickets.(i) <- ticket
          | _ -> ());
         r)
      prepared
  in
  Array.iteri
    (fun i (r : _ Loadgen.record) ->
       let rec collect () =
         if clock () < give_up then
           match rpc trs.(i) "poll" svc.fd (Protocol.Poll tickets.(i)) with
           | Protocol.Pending ->
             Unix.sleepf poll_interval;
             collect ()
           | reply ->
             r.Loadgen.completed <- clock ();
             r.Loadgen.result <-
               Some (match reply with Protocol.Completed s -> Ok s | _ -> Error "no result")
       in
       if r.Loadgen.accepted then collect ())
    recs;
  withdraw svc recs (Array.get tickets);
  let makespan =
    Array.fold_left
      (fun acc r -> Float.max acc (if Loadgen.is_complete r then r.Loadgen.completed else give_up))
      0.0 recs
  in
  (check_answers svc trs { prepared; recs; busy = 0; give_up }, makespan)

let bursts svc ~seed ~traced ks =
  List.map (fun k -> burst svc ~seed:(seed + (104729 * (k + 1))) ~traced) ks

let capacity rounds =
  let jobs = Array.concat (List.map fst rounds) in
  let makespan = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 rounds in
  let count f = float_of_int (Array.fold_left (fun acc j -> acc + Bool.to_int (f j)) 0 jobs) in
  ( jobs,
    ( Stats.ratio (count (fun (j : Job.t) -> not j.failed)) makespan,
      Stats.ratio (count (fun (j : Job.t) -> j.solved)) makespan ) )

(* One timed window at [rate]; the job list and schedule depend only on
   the seed. *)
let pass svc ~seed ~seconds ~traced =
  let n = max 20 (int_of_float (Float.round (seconds *. rate))) in
  let mix = Gen.serve_jobs ~seed ~n ~circuits ~skeletons in
  let due = Gen.arrivals ~seed ~n ~seconds in
  let trs = Array.init n (Job.trace traced) in
  let prepared = prepare svc trs mix in
  let half = burst_rounds / 2 in
  let before = bursts svc ~seed ~traced (List.init half Fun.id) in
  let h0, m0, d0, b0, j0 = shard_totals svc.pool in
  let solve0 = solve_seconds svc.tally in
  let w = open_window svc trs prepared ~due ~give_up:(seconds +. 30.0) in
  let h1, m1, d1, b1, j1 = shard_totals svc.pool in
  let solve1 = solve_seconds svc.tally in
  let jobs = check_answers svc trs w in
  let after = bursts svc ~seed ~traced (List.init (burst_rounds - half) (fun k -> half + k)) in
  let burst, throughput = capacity (before @ after) in
  let spans = Hashtbl.create 16 in
  Array.iter (Option.iter (absorb spans)) trs;
  Hashtbl.replace spans "solve" (solve1 -. solve0);
  let results =
    List.filter_map
      (fun (r : _ Loadgen.record) -> match r.Loadgen.result with Some (Ok s) -> Some (r, s) | _ -> None)
      (Array.to_list w.recs)
  in
  let waits = Array.of_list (List.map (fun (_, (s : Serve.result)) -> s.Serve.wait_seconds) results) in
  let sent = List.filter (fun r -> not (Float.is_nan r.Loadgen.sent)) (Array.to_list w.recs) in
  let lags = Array.of_list (List.map Loadgen.lag sent) in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  Hashtbl.replace spans "lag" (sum lags);
  Hashtbl.replace spans "queue" (sum waits);
  Hashtbl.replace spans "latency" (sum (latencies w));
  let tail a = Option.fold ~none:0.0 ~some:snd (Stats.tail a) in
  let fn = float_of_int n in
  let layer =
    [ ("serve.queue_wait_ms_p50", 1000.0 *. Stats.median waits);
      ("serve.queue_wait_ms_tail", 1000.0 *. tail waits);
      ("serve.batch_jobs_mean", Stats.ratio (float_of_int (j1 - j0)) (float_of_int (b1 - b0)));
      ("embed.deferrals_per_job", float_of_int (d1 - d0) /. fn);
      ("serve.busy_frac", float_of_int w.busy /. fn);
      ("loadgen.lag_ms_tail", 1000.0 *. tail lags);
      ("serve.codec_us_per_job",
       1e6
       *. (total spans "submit-encode" +. total spans "submit-decode"
           +. total spans "poll-encode" +. total spans "poll-decode")
       /. fn) ]
  in
  ({ jobs; throughput; burst; spans; hits = h1 - h0; misses = m1 - m0; layer }, w)

let canon (r : Sampler.response) =
  Protocol.json_to_string
    (Protocol.result_to_json
       { Serve.id = ""; status = Serve.Done; batch = 0; wait_seconds = 0.0; solve_seconds = 0.0;
         response = Some { r with Sampler.elapsed_seconds = 0.0 } })

let problem_of = function
  | Pc { program; _ } -> program.Assemble.problem
  | Ps { text; _ } -> (Compile.compile (Dimacs.parse text)).Compile.problem

let sample_size = 6

(* The composition-invariance gate, outside the timed window: a seeded
   sample of served jobs re-solved in-process by [Tiler] with the pool's
   params and seed must match bit for bit, timing fields zeroed.  The same
   direct embeddings give each served job its chain and qubit counts, and
   the sampled solves time the hit-path tile and the unembed. *)
let direct_check ~seed passes =
  let graph = graph () and cache = Cache.create () in
  let miss_s = ref 0.0 and misses = ref 0 in
  let tile problem =
    let m0 = (Cache.stats cache).Cache.misses in
    let t0 = now () in
    let tiling = Tiler.tile ~params:tiler_params ~cache graph [| problem |] in
    let dt = now () -. t0 in
    let dm = (Cache.stats cache).Cache.misses - m0 in
    if dm > 0 then begin
      misses := !misses + dm;
      miss_s := !miss_s +. dt
    end;
    (tiling, dt, dm)
  in
  let placed tiling =
    match tiling.Tiler.outcomes.(0) with Tiler.Placed p -> Some p | _ -> None
  in
  let embedded = Hashtbl.create 8 in
  let placed_of prep =
    let key = structure_key prep in
    match Hashtbl.find_opt embedded key with
    | Some p -> p
    | None ->
      let tiling, _, _ = tile (problem_of prep) in
      let p = placed tiling in
      Hashtbl.replace embedded key p;
      p
  in
  List.iter
    (fun ((pass : Job.pass), w) ->
       Array.iteri
         (fun i (job : Job.t) ->
            if not job.failed then
              match placed_of w.prepared.(i) with
              | Some p ->
                job.max_chain <- Embedding.max_chain_length p.Tiler.embedding;
                job.qubits <- (fst (Embedding.compact p.Tiler.physical)).Problem.num_vars
              | None -> ())
         pass.jobs)
    passes;
  let _, w = List.nth passes (List.length passes - 1) in
  let completed =
    List.filter (fun i -> served_response w.recs.(i) <> None)
      (List.init (Array.length w.recs) Fun.id)
    |> Array.of_list
  in
  let rng = Random.State.make [| seed; 0xd1 |] in
  Gen.shuffle rng completed;
  let sample = Array.sub completed 0 (min sample_size (Array.length completed)) in
  let solve_s = ref 0.0 and phys = ref None in
  let solver ~deadline q =
    let t0 = now () in
    let r = P.dispatch_solver ?deadline sa_solver q in
    solve_s := !solve_s +. (now () -. t0);
    phys := Some r;
    r
  in
  let probe = Job.create () in
  let mismatches = ref 0 and hit_s = ref 0.0 and hit_n = ref 0 and unembed_s = ref 0.0 in
  Array.iter
    (fun i ->
       let tiling, dt, dm = tile (problem_of w.prepared.(i)) in
       if dm = 0 then begin
         incr hit_n;
         hit_s := !hit_s +. dt
       end;
       let s0 = !solve_s and t0 = now () in
       let direct = List.map snd (Tiler.solve ~solver tiling) in
       unembed_s := !unembed_s +. (now () -. t0 -. (!solve_s -. s0));
       (match (placed tiling, !phys) with Some p, Some r -> count_broken probe p r | _ -> ());
       match (direct, served_response w.recs.(i)) with
       | [ d ], Some s when canon d = canon s -> ()
       | _ -> incr mismatches)
    sample;
  let k = float_of_int (Array.length sample) in
  ( [ ("served=direct", !mismatches = 0 && Array.length sample > 0) ],
    [ ("embed.cmr_ms_per_miss", 1000.0 *. Stats.ratio !miss_s (float_of_int !misses));
      ("embed.tile_ms_per_job", 1000.0 *. Stats.ratio !hit_s (float_of_int !hit_n));
      ("unembed.ms_per_job", 1000.0 *. Stats.ratio !unembed_s k);
      ("unembed.broken_chain_frac",
       Stats.ratio (float_of_int probe.broken) (float_of_int probe.chain_reads)) ] )

(* Highest offered rate that meets [knee_limit_s] at the tail with every
   job served and latency flat across the step; starts from the base
   window's own verdict. *)
let knee svc ~seed base =
  let meets w =
    let lat = latencies w in
    let n = Array.length w.recs in
    let third = max 1 (n / 3) in
    let part lo hi =
      Stats.mean
        (Array.of_list
           (List.filter_map
              (fun i ->
                 if served_response w.recs.(i) <> None then Some (Loadgen.latency w.recs.(i)) else None)
              (List.init (hi - lo) (fun k -> lo + k))))
    in
    Array.length lat = n
    && (match Stats.tail lat with Some (_, v) -> v <= knee_limit_s | None -> false)
    && part (n - third) n <= (2.0 *. part 0 third) +. 0.005
  in
  let rec go best k = function
    | [] -> best
    | f :: rest ->
      let r = rate *. f in
      let n = int_of_float (r *. knee_step_s) in
      let s = seed + (7919 * k) in
      let mix = Gen.serve_jobs ~seed:s ~n ~circuits ~skeletons in
      let due = Gen.arrivals ~seed:s ~n ~seconds:knee_step_s in
      let trs = Array.make n None in
      let w = open_window svc trs (prepare svc trs mix) ~due ~give_up:(knee_step_s +. 3.0) in
      if meets w then go r (k + 1) rest else best
  in
  if meets base then go rate 1 knee_factors else 0.0

let serve_open ~seed ~seconds =
  let inputs = warm_inputs () in
  let svc, setup_s = timed (fun () -> start inputs) in
  let windows = ref [] in
  let run ~traced =
    let p, w = pass svc ~seed ~seconds ~traced in
    windows := !windows @ [ (p, w) ];
    p
  in
  let finish ~traced =
    let gates, layer = direct_check ~seed !windows in
    let knee_rate = if traced then knee svc ~seed (snd (List.hd !windows)) else 0.0 in
    (gates, ("serve.knee_jobs_s", knee_rate) :: layer)
  in
  (setup_s, run, finish, fun () -> stop svc)
