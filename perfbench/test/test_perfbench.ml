(* Tests for the benchmark's own arithmetic: the tail-percentile rule,
   busy time, open-loop timing from the due time, and seed-determinism of
   the schedule and the workload generators. *)

let feq = Alcotest.float 1e-9

(* --- Tail rule --------------------------------------------------------------- *)

let test_tail_rule () =
  let q n = Stats.tail_percentile n in
  Alcotest.(check (option (float 0.0))) "19 samples: none" None (q 19);
  Alcotest.(check (option (float 0.0))) "20 samples: p50" (Some 0.5) (q 20);
  Alcotest.(check (option (float 0.0))) "99 samples: p75" (Some 0.75) (q 99);
  Alcotest.(check (option (float 0.0))) "100 samples: p90" (Some 0.9) (q 100);
  Alcotest.(check (option (float 0.0))) "199 samples: p90" (Some 0.9) (q 199);
  Alcotest.(check (option (float 0.0))) "200 samples: p95" (Some 0.95) (q 200);
  Alcotest.(check (option (float 0.0))) "1000 samples: p99" (Some 0.99) (q 1000);
  Alcotest.(check (option (float 0.0))) "10000 samples: p99.9" (Some 0.999) (q 10000);
  (* whatever the count, the chosen percentile leaves >= 10 samples beyond
     it, and the next one up on the ladder would not *)
  for n = 20 to 3000 do
    match q n with
    | None -> Alcotest.fail "no percentile"
    | Some p ->
      Alcotest.(check bool) "10 beyond" true (Stats.beyond ~n p >= 10);
      List.iter
        (fun higher ->
           if higher > p then Alcotest.(check bool) "higher has < 10" true (Stats.beyond ~n higher < 10))
        Stats.ladder
  done

let test_tail_value () =
  (* 1..100: p90 by nearest rank is the 90th value; ten values lie above *)
  let values = Array.init 100 (fun i -> float_of_int (100 - i)) in
  match Stats.tail values with
  | Some (q, v) ->
    Alcotest.check feq "q" 0.9 q;
    Alcotest.check feq "value" 90.0 v;
    Alcotest.(check int) "beyond" 10
      (Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 values)
  | None -> Alcotest.fail "no tail"

let test_quantiles () =
  Alcotest.check feq "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check feq "median even (lower)" 2.0 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.check feq "empty" 0.0 (Stats.median [||]);
  Alcotest.check feq "max" 4.0 (Stats.quantile [| 4.0; 1.0 |] 1.0)

let test_busy () =
  Alcotest.check feq "disjoint" 2.0 (Stats.busy_seconds [| (0.0, 1.0); (2.0, 3.0) |]);
  Alcotest.check feq "overlap" 3.0 (Stats.busy_seconds [| (1.0, 3.0); (0.0, 2.0); (2.5, 3.0) |]);
  Alcotest.check feq "nested" 4.0 (Stats.busy_seconds [| (0.0, 4.0); (1.0, 2.0) |]);
  Alcotest.check feq "empty" 0.0 (Stats.busy_seconds [||])

(* --- Open loop --------------------------------------------------------------- *)

(* A simulated clock: sleeping and stalls advance it, nothing else does. *)
let simulate ~due ~service ~stall =
  let clock = ref 100.0 in
  let sent_at = Hashtbl.create 16 in
  let submit i =
    if i = 0 then clock := !clock +. stall;
    Hashtbl.replace sent_at i !clock;
    Some i
  in
  let poll i = if !clock >= Hashtbl.find sent_at i +. service then Some i else None in
  Loadgen.run
    ~now:(fun () -> !clock)
    ~sleep:(fun d -> clock := !clock +. d)
    ~poll_interval:0.001 ~give_up:60.0 ~due ~submit ~poll

let test_open_loop_on_time () =
  let recs = simulate ~due:[| 0.0; 1.0; 2.0 |] ~service:0.05 ~stall:0.0 in
  Array.iter
    (fun r ->
       Alcotest.check (Alcotest.float 1e-6) "no lag" 0.0 (Loadgen.lag r);
       Alcotest.(check bool) "latency ~ service" true
         (Loadgen.latency r >= 0.05 && Loadgen.latency r < 0.0525))
    recs

let test_open_loop_stall () =
  (* Submitting job 0 stalls the generator for 0.5 s: jobs due meanwhile go
     out late, and their latency counts from when they were due. *)
  let recs = simulate ~due:[| 0.0; 0.1; 0.2; 2.0 |] ~service:0.05 ~stall:0.5 in
  Alcotest.check (Alcotest.float 1e-6) "job 1 lag" 0.4 (Loadgen.lag recs.(1));
  Alcotest.check (Alcotest.float 1e-6) "job 2 lag" 0.3 (Loadgen.lag recs.(2));
  Alcotest.(check bool) "job 1 latency includes the stall" true (Loadgen.latency recs.(1) >= 0.45);
  Alcotest.(check bool) "latency = lag + time in system" true
    (Loadgen.latency recs.(2) >= Loadgen.lag recs.(2) +. 0.05);
  Alcotest.check (Alcotest.float 1e-6) "later job on time" 0.0 (Loadgen.lag recs.(3))

let test_open_loop_refused () =
  let clock = ref 0.0 in
  let recs =
    Loadgen.run
      ~now:(fun () -> !clock)
      ~sleep:(fun d -> clock := !clock +. d)
      ~poll_interval:0.001 ~give_up:5.0 ~due:[| 0.0; 0.5 |]
      ~submit:(fun i -> if i = 0 then None else Some i)
      ~poll:(fun i -> Some i)
  in
  Alcotest.(check bool) "refused" false recs.(0).Loadgen.accepted;
  Alcotest.(check bool) "refused never completes" false (Loadgen.is_complete recs.(0));
  Alcotest.(check bool) "other completes" true (Loadgen.is_complete recs.(1))

let test_open_loop_give_up () =
  let clock = ref 0.0 in
  let recs =
    Loadgen.run
      ~now:(fun () -> !clock)
      ~sleep:(fun d -> clock := !clock +. d)
      ~poll_interval:0.01 ~give_up:1.0 ~due:[| 0.0 |]
      ~submit:(fun i -> Some i) ~poll:(fun _ -> None)
  in
  Alcotest.(check bool) "never completes" false (Loadgen.is_complete recs.(0));
  Alcotest.(check bool) "stops at give-up" true (!clock >= 1.0 && !clock < 1.1)

let test_waited () =
  (* A refused job never completes; a job left open gives up at 5 s.  Both
     cost their client the wait from when they were due to the give-up. *)
  let clock = ref 0.0 in
  let recs =
    Loadgen.run
      ~now:(fun () -> !clock)
      ~sleep:(fun d -> clock := !clock +. d)
      ~poll_interval:0.01 ~give_up:5.0 ~due:[| 0.0; 1.0; 2.0 |]
      ~submit:(fun i -> if i = 0 then None else Some i)
      ~poll:(fun i -> if i = 1 && !clock >= 1.25 then Some i else None)
  in
  let waited i = Loadgen.waited ~give_up:5.0 ~answered:(Loadgen.is_complete recs.(i)) recs.(i) in
  Alcotest.check (Alcotest.float 1e-6) "refused: due to give-up" 5.0 (waited 0);
  Alcotest.(check bool) "answered: its latency" true (waited 1 >= 0.25 && waited 1 < 0.27);
  Alcotest.check (Alcotest.float 1e-6) "unanswered: due to give-up" 3.0 (waited 2)

(* --- Seed determinism -------------------------------------------------------- *)

let test_arrivals () =
  let a = Gen.arrivals ~seed:7 ~n:300 ~seconds:20.0 in
  Alcotest.(check bool) "same seed" true (a = Gen.arrivals ~seed:7 ~n:300 ~seconds:20.0);
  Alcotest.(check bool) "other seed" false (a = Gen.arrivals ~seed:8 ~n:300 ~seconds:20.0);
  Alcotest.(check int) "count fixed" 300 (Array.length a);
  Array.iteri
    (fun i t ->
       Alcotest.(check bool) "in window" true (t >= 0.0 && t < 20.0);
       if i > 0 then Alcotest.(check bool) "sorted" true (t >= a.(i - 1)))
    a

let test_circuit_jobs () =
  let a = Gen.circuit_jobs ~seed:3 ~blocks:4 in
  let srcs jobs = Array.map (fun (j : Gen.circuit_job) -> (j.Gen.src, j.Gen.pins)) jobs in
  Alcotest.(check bool) "same seed" true (srcs a = srcs (Gen.circuit_jobs ~seed:3 ~blocks:4));
  Alcotest.(check bool) "other seed" false (srcs a = srcs (Gen.circuit_jobs ~seed:4 ~blocks:4));
  let nf = Array.length Gen.cold_families in
  Alcotest.(check int) "count" (4 * nf) (Array.length a);
  (* stratified: every block holds each family once *)
  for b = 0 to 3 do
    let names =
      List.sort compare
        (List.init nf (fun k -> a.((b * nf) + k).Gen.fam.Gen.fname))
    in
    Alcotest.(check (list string)) "block mix"
      (List.sort compare (Array.to_list (Array.map (fun f -> f.Gen.fname) Gen.cold_families)))
      names
  done;
  let distinct = List.sort_uniq compare (Array.to_list (Array.map (fun j -> j.Gen.src) a)) in
  Alcotest.(check int) "distinct programs" (Array.length a) (List.length distinct);
  (* backward jobs pin an output the oracle reaches *)
  Array.iter
    (fun (j : Gen.circuit_job) ->
       match j.Gen.dir with
       | Gen.Backward ->
         Alcotest.(check (list (pair string int))) "pinned y"
           [ ("y", Gen.output j.Gen.fam ~xor_k:j.Gen.xor_k j.Gen.a j.Gen.b) ] j.Gen.pins
       | Gen.Forward -> ())
    a

let clause_lits text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "" && l.[0] <> 'p')
  |> List.map (fun l ->
    String.split_on_char ' ' l |> List.filter (fun s -> s <> "" && s <> "0") |> List.map int_of_string)

let test_sat_jobs () =
  let sizes = [| 20; 24 |] in
  let a = Gen.sat_jobs ~seed:5 ~blocks:3 ~sizes in
  Alcotest.(check bool) "same seed" true (a = Gen.sat_jobs ~seed:5 ~blocks:3 ~sizes);
  Alcotest.(check bool) "other seed" false (a = Gen.sat_jobs ~seed:6 ~blocks:3 ~sizes);
  Alcotest.(check int) "count" 6 (Array.length a);
  Array.iteri
    (fun i text ->
       let clauses = clause_lits text in
       let vars = List.sort_uniq compare (List.concat_map (List.map abs) clauses) in
       let n = List.length clauses / 4 in
       Alcotest.(check bool) "a size of the ladder" true (Array.mem n sizes);
       Alcotest.(check bool) "variables in range" true (List.for_all (fun v -> v >= 1 && v <= n) vars);
       List.iter
         (fun lits ->
            Alcotest.(check int) "3 distinct vars" 3
              (List.length (List.sort_uniq compare (List.map abs lits))))
         clauses;
       (* each block holds every size once *)
       if i mod 2 = 1 then
         Alcotest.(check int) "block mix" (20 + 24)
           (n + (List.length (clause_lits a.(i - 1)) / 4)))
    a

let test_serve_jobs () =
  let circuits = [| (Gen.cold_families.(0), 0); (Gen.cold_families.(2), 0) |] in
  let skeletons = [| Gen.skeleton ~seed:1 ~num_vars:6 ~num_clauses:12 |] in
  let a = Gen.serve_jobs ~seed:9 ~n:200 ~circuits ~skeletons in
  Alcotest.(check bool) "same seed" true (a = Gen.serve_jobs ~seed:9 ~n:200 ~circuits ~skeletons);
  Alcotest.(check bool) "other seed" false (a = Gen.serve_jobs ~seed:10 ~n:200 ~circuits ~skeletons);
  Alcotest.(check int) "count" 200 (Array.length a);
  (* no job content recurs within a window of 16 jobs, so no two jobs in
     flight together can coalesce *)
  Array.iteri
    (fun i j -> for k = i + 1 to min (Array.length a - 1) (i + 16) do
        Alcotest.(check bool) "no near duplicate" false (a.(k) = j) done)
    a;
  (* a gauge is a model of its instance *)
  let sk = skeletons.(0) in
  List.iter
    (fun g ->
       List.iter
         (fun lits ->
            Alcotest.(check bool) "gauge satisfies" true
              (List.exists (fun l -> (l > 0) = ((g lsr (abs l - 1)) land 1 = 0)) lits))
         (clause_lits (Gen.gauged sk g)))
    [ 0; 5; 63 ]

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "tail value" `Quick test_tail_value;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "busy time" `Quick test_busy ] );
      ( "loadgen",
        [ Alcotest.test_case "on time" `Quick test_open_loop_on_time;
          Alcotest.test_case "stall shows as lateness" `Quick test_open_loop_stall;
          Alcotest.test_case "refused job" `Quick test_open_loop_refused;
          Alcotest.test_case "give up" `Quick test_open_loop_give_up;
          Alcotest.test_case "unanswered jobs wait to give-up" `Quick test_waited ] );
      ( "determinism",
        [ Alcotest.test_case "arrival schedule" `Quick test_arrivals;
          Alcotest.test_case "circuit jobs" `Quick test_circuit_jobs;
          Alcotest.test_case "sat jobs" `Quick test_sat_jobs;
          Alcotest.test_case "serving mix" `Quick test_serve_jobs ] ) ]
