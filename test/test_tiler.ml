(** The tiler's contract: disjoint regions, each sized to its job's local
    physical problem, and composition invariance — a job's solved response
    is bit-identical
    whether it is solved alone or packed with any other jobs, at any thread
    count. *)

open Qac_ising
module Chimera = Qac_chimera.Chimera
module Tiler = Qac_embed.Tiler
module Embedding = Qac_embed.Embedding
module Cache = Qac_embed.Cache
module Sampler = Qac_anneal.Sampler
module Sa = Qac_anneal.Sa

(* Fast embedding parameters: these problems are tiny. *)
let params =
  { Tiler.default_params with
    Tiler.embed_params = Some { Qac_embed.Cmr.default_params with tries = 4 } }

(* A deterministic, pure solver closure (fixed seed, small budget). *)
let solver ~deadline p =
  Sa.sample
    ~params:{ Sa.default_params with Sa.num_reads = 6; num_sweeps = 40; seed = 5 }
    ?deadline p

let check_sample (a : Sampler.sample) (b : Sampler.sample) =
  Alcotest.(check (array int)) "spins" a.Sampler.spins b.Sampler.spins;
  Alcotest.(check (float 1e-9)) "energy" a.Sampler.energy b.Sampler.energy;
  Alcotest.(check int) "occurrences" a.Sampler.num_occurrences b.Sampler.num_occurrences

let check_response name (a : Sampler.response) (b : Sampler.response) =
  Alcotest.(check int) (name ^ ": num_reads") a.Sampler.num_reads b.Sampler.num_reads;
  Alcotest.(check int)
    (name ^ ": distinct samples")
    (List.length a.Sampler.samples)
    (List.length b.Sampler.samples);
  List.iter2 check_sample a.Sampler.samples b.Sampler.samples

let placed_exn t i =
  match t.Tiler.outcomes.(i) with
  | Tiler.Placed p -> p
  | Tiler.Deferred -> Alcotest.fail (Printf.sprintf "job %d deferred" i)
  | Tiler.Failed m -> Alcotest.fail (Printf.sprintf "job %d failed: %s" i m)

(* Small pseudo-random problems with varied structure. *)
let chain_problem n =
  Problem.create ~num_vars:n
    ~h:(Array.init n (fun i -> if i mod 2 = 0 then 0.5 else -0.25))
    ~j:(List.init (n - 1) (fun i -> ((i, i + 1), if i mod 3 = 0 then -1.0 else 0.5)))
    ()

let ring_problem n =
  Problem.create ~num_vars:n ~h:(Array.make n 0.1)
    ~j:(List.init n (fun i -> ((min i ((i + 1) mod n), max i ((i + 1) mod n)), 1.0)))
    ()

let dense_problem n =
  let j = ref [] in
  for i = 0 to n - 1 do
    for k = i + 1 to n - 1 do
      j := ((i, k), if (i + k) mod 2 = 0 then 0.5 else -0.5) :: !j
    done
  done;
  Problem.create ~num_vars:n ~h:(Array.init n (fun i -> float_of_int (i - 1) *. 0.2)) ~j:!j ()

let jobs = [| chain_problem 5; ring_problem 4; dense_problem 4; chain_problem 3 |]

(* Placed regions never share a qubit, and each job's local physical
   problem spans exactly its region (one variable per region qubit), so no
   job's couplers can reach outside it. *)
let check_isolation t =
  let owner = Hashtbl.create 256 in
  Array.iter
    (function
      | Tiler.Placed p ->
        Alcotest.(check int) "physical spans the region"
          (Array.length p.Tiler.region.Tiler.qubits)
          p.Tiler.physical.Problem.num_vars;
        Array.iter
          (fun q ->
             Alcotest.(check bool) "regions disjoint" false (Hashtbl.mem owner q);
             Hashtbl.replace owner q p.Tiler.job)
          p.Tiler.region.Tiler.qubits
      | Tiler.Deferred | Tiler.Failed _ -> ())
    t.Tiler.outcomes

(* Per-job tiling output that must not depend on the thread count. *)
let check_same_tiling t1 t4 =
  Array.iteri
    (fun i _ ->
       let p1 = placed_exn t1 i and p4 = placed_exn t4 i in
       Alcotest.(check bool) "physical problems equal" true
         (Problem.equal p1.Tiler.physical p4.Tiler.physical);
       Alcotest.(check (array int)) "region qubits" p1.Tiler.region.Tiler.qubits
         p4.Tiler.region.Tiler.qubits;
       Alcotest.(check bool) "embedding equal" true (p1.Tiler.embedding = p4.Tiler.embedding))
    t1.Tiler.problems

let tiling_tests =
  [ Alcotest.test_case "all jobs place on C6 with disjoint regions" `Quick (fun () ->
        let graph = Chimera.create 6 in
        let t = Tiler.tile ~params graph jobs in
        let placed, deferred, failed = Tiler.counts t in
        Alcotest.(check int) "all placed" (Array.length jobs) placed;
        Alcotest.(check int) "none deferred" 0 deferred;
        Alcotest.(check int) "none failed" 0 failed;
        check_isolation t;
        Alcotest.(check bool) "occupancy positive" true (Tiler.occupancy t > 0.0);
        Alcotest.(check bool) "occupancy below 1" true (Tiler.occupancy t < 1.0));
    Alcotest.test_case "tiling is identical at 1 and 4 threads" `Quick (fun () ->
        let graph = Chimera.create 6 in
        let t1 = Tiler.tile ~params ~num_threads:1 graph jobs in
        let t4 = Tiler.tile ~params ~num_threads:4 graph jobs in
        check_same_tiling t1 t4);
    Alcotest.test_case "broken cells are never used" `Quick (fun () ->
        (* Break one qubit of cell (0,0): the whole cell must leave the pool. *)
        let graph = Chimera.create ~broken:[ 3 ] 6 in
        let t = Tiler.tile ~params graph jobs in
        let placed, _, failed = Tiler.counts t in
        Alcotest.(check int) "all placed" (Array.length jobs) placed;
        Alcotest.(check int) "none failed" 0 failed;
        Array.iter
          (function
            | Tiler.Placed p ->
              Array.iter
                (fun q ->
                   Alcotest.(check bool) "qubit outside cell (0,0)" true (q >= 8))
                p.Tiler.region.Tiler.qubits
            | _ -> ())
          t.Tiler.outcomes;
        check_isolation t);
    Alcotest.test_case "too-large problem fails, batch survives" `Quick (fun () ->
        let graph = Chimera.create 2 in
        (* A 40-variable ring cannot fit a C2 (32 qubits). *)
        let t = Tiler.tile ~params graph [| chain_problem 3; ring_problem 40 |] in
        (match t.Tiler.outcomes.(0) with
         | Tiler.Placed _ -> ()
         | _ -> Alcotest.fail "small job should place");
        (match t.Tiler.outcomes.(1) with
         | Tiler.Failed _ -> ()
         | _ -> Alcotest.fail "oversized job should fail"));
    Alcotest.test_case "floor exhaustion defers, never overlaps" `Quick (fun () ->
        let graph = Chimera.create 2 in
        (* Each dense 8-var job needs a whole C2-sized block; the second
           cannot fit alongside. *)
        let big = dense_problem 8 in
        let t = Tiler.tile ~params graph [| big; big; big |] in
        let placed, deferred, failed = Tiler.counts t in
        Alcotest.(check bool) "at least one placed" true (placed >= 1);
        Alcotest.(check int) "none failed" 0 failed;
        Alcotest.(check bool) "rest deferred" true (deferred = 3 - placed);
        check_isolation t);
    Alcotest.test_case "empty problem places trivially" `Quick (fun () ->
        let graph = Chimera.create 2 in
        let t = Tiler.tile ~params graph [| Problem.empty |] in
        let p = placed_exn t 0 in
        Alcotest.(check int) "no qubits" 0 (Array.length p.Tiler.region.Tiler.qubits);
        match Tiler.solve ~solver t with
        | [ (0, r) ] ->
          Alcotest.(check int) "one read" 1 r.Sampler.num_reads
        | _ -> Alcotest.fail "expected one response");
    Alcotest.test_case "embedding cache is shared across identical jobs" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         let cache = Cache.create () in
         let same = chain_problem 5 in
         let t = Tiler.tile ~params ~cache graph [| same; same; same; same |] in
         let placed, _, _ = Tiler.counts t in
         Alcotest.(check int) "all placed" 4 placed;
         let { Cache.hits; misses; _ } = Cache.stats cache in
         Alcotest.(check bool) "cache hits from repeated structure" true (hits >= 3);
         Alcotest.(check bool) "few misses" true (misses <= 4)) ]

let solve_tests =
  [ Alcotest.test_case "composition invariance: alone vs batched" `Quick (fun () ->
        let graph = Chimera.create 6 in
        let batch = Tiler.tile ~params graph jobs in
        let batched = Tiler.solve ~solver batch in
        Array.iteri
          (fun i p ->
             let alone = Tiler.tile ~params graph [| p |] in
             match (Tiler.solve ~solver alone, List.assoc_opt i batched) with
             | [ (0, ra) ], Some rb ->
               check_response (Printf.sprintf "job %d" i) ra rb
             | _ -> Alcotest.fail "missing response")
          jobs);
    Alcotest.test_case "solve is identical at 1 and 4 threads" `Quick (fun () ->
        let graph = Chimera.create 6 in
        let t = Tiler.tile ~params graph jobs in
        let r1 = Tiler.solve ~num_threads:1 ~solver t in
        let r4 = Tiler.solve ~num_threads:4 ~solver t in
        Alcotest.(check int) "same job set" (List.length r1) (List.length r4);
        List.iter2
          (fun (i1, a) (i4, b) ->
             Alcotest.(check int) "job order" i1 i4;
             check_response (Printf.sprintf "job %d" i1) a b)
          r1 r4);
    Alcotest.test_case "solved samples hit the true ground state" `Quick (fun () ->
        (* A ferromagnetic chain's ground energy is known; the tiled solve
           must find it through embedding + majority vote. *)
        let n = 4 in
        let ferro =
          Problem.create ~num_vars:n ~h:(Array.make n 0.0)
            ~j:(List.init (n - 1) (fun i -> ((i, i + 1), -1.0)))
            ()
        in
        let graph = Chimera.create 4 in
        let t = Tiler.tile ~params graph [| ferro |] in
        match Tiler.solve ~solver t with
        | [ (0, r) ] ->
          Alcotest.(check (float 1e-9)) "ground energy"
            (-.float_of_int (n - 1))
            (Sampler.best r).Sampler.energy
        | _ -> Alcotest.fail "expected one response");
    Alcotest.test_case "per-job deadline flags only that job" `Quick (fun () ->
        let graph = Chimera.create 6 in
        let t = Tiler.tile ~params graph [| chain_problem 5; chain_problem 4 |] in
        let deadline i = if i = 0 then Some 0.0 else None in
        (match Tiler.solve ~deadline ~solver t with
         | [ (0, r0); (1, r1) ] ->
           Alcotest.(check bool) "job 0 timed out" true r0.Sampler.timed_out;
           Alcotest.(check bool) "job 0 kept partial reads" true
             (r0.Sampler.num_reads >= 1);
           Alcotest.(check bool) "job 1 unaffected" false r1.Sampler.timed_out
         | _ -> Alcotest.fail "expected two responses")) ]

(* QCheck: for random batches of random problems, regions never overlap,
   each job's physical problem spans exactly its region, and each job
   solves to exactly the solution set it gets when solved alone. *)
let random_problem =
  QCheck.Gen.(
    sized_size (int_range 1 6) (fun n ->
        let n = max 1 n in
        let* hs = array_size (return n) (float_range (-1.0) 1.0) in
        let* edges =
          flatten_l
            (List.concat
               (List.init n (fun i ->
                    List.init (n - i - 1) (fun k ->
                        let j = i + k + 1 in
                        let* keep = bool in
                        let* w = float_range (-1.0) 1.0 in
                        return (if keep && w <> 0.0 then Some ((i, j), w) else None)))))
        in
        return
          (Problem.create ~num_vars:n ~h:hs ~j:(List.filter_map Fun.id edges) ())))

let arbitrary_batch =
  QCheck.make
    ~print:(fun ps ->
      String.concat "\n---\n" (List.map Problem.to_string ps))
    QCheck.Gen.(list_size (int_range 1 5) random_problem)

let qcheck_isolation =
  (* Both families: the isolation and invariance contracts are per-family
     obligations of the carving, not Chimera accidents. *)
  QCheck.Test.make ~name:"random batches: isolation + per-job invariance" ~count:15
    arbitrary_batch (fun problems ->
      List.iter
        (fun graph ->
           let batch = Array.of_list problems in
           let t = Tiler.tile ~params graph batch in
           check_isolation t;
           let batched = Tiler.solve ~solver t in
           Array.iteri
             (fun i p ->
                match t.Tiler.outcomes.(i) with
                | Tiler.Placed _ ->
                  let alone = Tiler.tile ~params graph [| p |] in
                  (match (Tiler.solve ~solver alone, List.assoc_opt i batched) with
                   | [ (0, ra) ], Some rb ->
                     check_response (Printf.sprintf "job %d" i) ra rb
                   | _ -> Alcotest.fail "missing response")
                | Tiler.Deferred | Tiler.Failed _ -> ())
             batch)
        [ Chimera.create 6; Qac_chimera.Pegasus.create 4 ];
      true)

let accounting_tests =
  [ Alcotest.test_case "occupancy counts only working qubits" `Quick (fun () ->
        (* Pegasus blocks carry the local fabric's trimmed boundary qubits;
           counting them against the working-qubit denominator overstates
           the ratio, and past 1 on a full chip. *)
        let graph = Qac_chimera.Pegasus.create 4 in
        let t = Tiler.tile ~params graph (Array.make 16 (chain_problem 3)) in
        let placed, _, _ = Tiler.counts t in
        Alcotest.(check bool) "several placed" true (placed > 1);
        let working =
          Array.fold_left
            (fun acc o ->
               match o with
               | Tiler.Placed p ->
                 acc
                 + Array.fold_left
                     (fun n q ->
                        if Qac_chimera.Topology.is_working graph q then n + 1 else n)
                     0 p.Tiler.region.Tiler.qubits
               | Tiler.Deferred | Tiler.Failed _ -> acc)
            0 t.Tiler.outcomes
        in
        let expected =
          float_of_int working
          /. float_of_int (Qac_chimera.Topology.num_working_qubits graph)
        in
        Alcotest.(check (float 1e-12)) "working region qubits / working qubits" expected
          (Tiler.occupancy t);
        Alcotest.(check bool) "occupancy at most 1" true (Tiler.occupancy t <= 1.0));
    Alcotest.test_case "composition invariance under discard" `Quick (fun () ->
        (* Weak chains and two sweeps break chains, so [Discard] has reads to
           drop; a job's kept reads must still not depend on its batch. *)
        let params = { params with Tiler.chain_strength = Some 0.25 } in
        let solver ~deadline p =
          Sa.sample
            ~params:{ Sa.default_params with Sa.num_reads = 20; num_sweeps = 2; seed = 5 }
            ?deadline p
        in
        let graph = Chimera.create 6 in
        let solve t = Tiler.solve ~chain_break:Embedding.Discard ~solver t in
        let batched = solve (Tiler.tile ~params graph jobs) in
        Array.iteri
          (fun i p ->
             match (solve (Tiler.tile ~params graph [| p |]), List.assoc_opt i batched) with
             | [ (0, ra) ], Some rb -> check_response (Printf.sprintf "job %d" i) ra rb
             | _ -> Alcotest.fail "missing response")
          jobs;
        Alcotest.(check bool) "some job dropped reads" true
          (List.exists (fun (_, r) -> r.Sampler.num_reads < 20) batched)) ]

let pegasus_tests =
  let graph = Qac_chimera.Pegasus.create 4 in
  [ Alcotest.test_case "all jobs place on P4 with disjoint regions" `Quick (fun () ->
        let t = Tiler.tile ~params graph jobs in
        let placed, deferred, failed = Tiler.counts t in
        Alcotest.(check int) "all placed" (Array.length jobs) placed;
        Alcotest.(check int) "none deferred" 0 deferred;
        Alcotest.(check int) "none failed" 0 failed;
        check_isolation t);
    Alcotest.test_case "composition invariance on Pegasus" `Quick (fun () ->
        let batch = Tiler.tile ~params graph jobs in
        let batched = Tiler.solve ~solver batch in
        Array.iteri
          (fun i p ->
             let alone = Tiler.tile ~params graph [| p |] in
             match (Tiler.solve ~solver alone, List.assoc_opt i batched) with
             | [ (0, ra) ], Some rb -> check_response (Printf.sprintf "job %d" i) ra rb
             | _ -> Alcotest.fail "missing response")
          jobs);
    Alcotest.test_case "Pegasus tiling is identical at 1 and 4 threads" `Quick
      (fun () ->
         let t1 = Tiler.tile ~params ~num_threads:1 graph jobs in
         let t4 = Tiler.tile ~params ~num_threads:4 graph jobs in
         check_same_tiling t1 t4) ]

(* Kept last so that adding it left the case numbers of the earlier tests
   unchanged. *)
let cache_thread_tests =
  [ Alcotest.test_case "cache counts are identical at 1, 2 and 4 threads" `Quick
      (fun () ->
         (* Two structures, four adjacent jobs each, with distinct
            coefficients: the later jobs of a structure must hit the first
            one's entry, never race it to a second CMR search. *)
         let graph = Chimera.create 16 in
         let params = { params with Tiler.slack = 6.0 } in
         let job i =
           let n = if i < 4 then 8 else 11 in
           Problem.create ~num_vars:n
             ~h:(Array.init n (fun k -> float_of_int (i + k) /. 10.0))
             ~j:(List.init (n - 1) (fun k -> ((k, k + 1), 1.0 +. float_of_int i)))
             ()
         in
         let problems = Array.init 8 job in
         let counts num_threads =
           let cache = Cache.create () in
           ignore (Tiler.tile ~params ~cache ~num_threads graph problems);
           let { Cache.hits; misses; _ } = Cache.stats cache in
           (hits, misses)
         in
         let one = counts 1 in
         Alcotest.(check (pair int int)) "2 threads" one (counts 2);
         Alcotest.(check (pair int int)) "4 threads" one (counts 4));
    Alcotest.test_case "a re-tile through the cache reruns no failed search" `Quick
      (fun () ->
         (* A dense 10-variable problem with one CMR try per attempt: the
            ladder's first attempts fail before one succeeds, and the
            cache must remember those failures too. *)
         let st = Random.State.make [| 1 |] in
         let n = 10 in
         let seen = Hashtbl.create 64 in
         let j = ref [] in
         while List.length !j < 30 do
           let a = Random.State.int st n and b = Random.State.int st n in
           let key = (min a b, max a b) in
           if a <> b && not (Hashtbl.mem seen key) then begin
             Hashtbl.add seen key ();
             j := (key, 1.0) :: !j
           end
         done;
         let p = Problem.create ~num_vars:n ~h:(Array.make n 0.0) ~j:!j () in
         let params =
           { Tiler.default_params with
             Tiler.embed_params = Some { Qac_embed.Cmr.default_params with tries = 1 } }
         in
         let graph = Chimera.create 6 in
         let cache = Cache.create () in
         let first = Tiler.tile ~params ~cache graph [| p |] in
         let cold = Cache.stats cache in
         Alcotest.(check bool) "some search failed" true (cold.Cache.misses > 1);
         let second = Tiler.tile ~params ~cache graph [| p |] in
         let warm = Cache.stats cache in
         Alcotest.(check int) "no new misses" cold.Cache.misses warm.Cache.misses;
         check_same_tiling first second) ]

let suite =
  tiling_tests @ solve_tests @ accounting_tests @ pegasus_tests
  @ [ QCheck_alcotest.to_alcotest qcheck_isolation ]
  @ cache_thread_tests
