open Qac_ising
open Qac_cellgen

(* Gate logic functions over input rows (output appended by of_function). *)
let and_fn v = v.(0) && v.(1)
let or_fn v = v.(0) || v.(1)
let xor_fn v = v.(0) <> v.(1)
let not_fn v = not v.(0)

let lp_tests =
  [ Alcotest.test_case "maximize on a box" `Quick (fun () ->
        (* max x + y st x + y <= 3, x,y in [0,2] *)
        let c = { Lp.coeffs = [| 1.0; 1.0 |]; relation = Lp.Le; rhs = 3.0 } in
        match
          Lp.solve Lp.Maximize [| 1.0; 1.0 |] [ c ] ~bounds:[| (0.0, 2.0); (0.0, 2.0) |]
        with
        | Lp.Optimal { value; _ } -> Alcotest.(check (float 1e-6)) "value" 3.0 value
        | _ -> Alcotest.fail "expected optimum");
    Alcotest.test_case "minimize with equality" `Quick (fun () ->
        (* min x - y st x + y = 1, x,y >= 0 -> x=0, y=1, value -1 *)
        let c = { Lp.coeffs = [| 1.0; 1.0 |]; relation = Lp.Eq; rhs = 1.0 } in
        match
          Lp.solve Lp.Minimize [| 1.0; -1.0 |] [ c ]
            ~bounds:[| (0.0, infinity); (0.0, infinity) |]
        with
        | Lp.Optimal { value; solution } ->
          Alcotest.(check (float 1e-6)) "value" (-1.0) value;
          Alcotest.(check (float 1e-6)) "x" 0.0 solution.(0);
          Alcotest.(check (float 1e-6)) "y" 1.0 solution.(1)
        | _ -> Alcotest.fail "expected optimum");
    Alcotest.test_case "infeasible detected" `Quick (fun () ->
        let cs =
          [ { Lp.coeffs = [| 1.0 |]; relation = Lp.Ge; rhs = 2.0 };
            { Lp.coeffs = [| 1.0 |]; relation = Lp.Le; rhs = 1.0 } ]
        in
        match Lp.solve Lp.Maximize [| 1.0 |] cs ~bounds:[| (neg_infinity, infinity) |] with
        | Lp.Infeasible -> ()
        | _ -> Alcotest.fail "expected infeasible");
    Alcotest.test_case "unbounded detected" `Quick (fun () ->
        match Lp.solve Lp.Maximize [| 1.0 |] [] ~bounds:[| (neg_infinity, infinity) |] with
        | Lp.Unbounded -> ()
        | _ -> Alcotest.fail "expected unbounded");
    Alcotest.test_case "free variables can go negative" `Quick (fun () ->
        let c = { Lp.coeffs = [| 1.0 |]; relation = Lp.Ge; rhs = -5.0 } in
        match Lp.solve Lp.Minimize [| 1.0 |] [ c ] ~bounds:[| (neg_infinity, infinity) |] with
        | Lp.Optimal { value; _ } -> Alcotest.(check (float 1e-6)) "value" (-5.0) value
        | _ -> Alcotest.fail "expected optimum");
    Alcotest.test_case "degenerate system terminates (Bland)" `Quick (fun () ->
        (* A classic cycling-prone instance; Bland's rule must terminate. *)
        let cs =
          [ { Lp.coeffs = [| 0.5; -5.5; -2.5; 9.0 |]; relation = Lp.Le; rhs = 0.0 };
            { Lp.coeffs = [| 0.5; -1.5; -0.5; 1.0 |]; relation = Lp.Le; rhs = 0.0 };
            { Lp.coeffs = [| 1.0; 0.0; 0.0; 0.0 |]; relation = Lp.Le; rhs = 1.0 } ]
        in
        let bounds = Array.make 4 (0.0, infinity) in
        match Lp.solve Lp.Maximize [| 10.0; -57.0; -9.0; -24.0 |] cs ~bounds with
        | Lp.Optimal { value; _ } -> Alcotest.(check (float 1e-6)) "value" 1.0 value
        | _ -> Alcotest.fail "expected optimum");
  ]

let truthtab_tests =
  [ Alcotest.test_case "of_function AND" `Quick (fun () ->
        let t = Truthtab.of_function ~num_inputs:2 and_fn in
        Alcotest.(check int) "vars" 3 t.Truthtab.num_vars;
        Alcotest.(check int) "rows" 4 (List.length t.Truthtab.valid);
        Alcotest.(check bool) "TTT valid" true (Truthtab.is_valid t [| true; true; true |]);
        Alcotest.(check bool) "TTF invalid" false
          (Truthtab.is_valid t [| true; true; false |]));
    Alcotest.test_case "augment appends columns" `Quick (fun () ->
        let t = Truthtab.of_function ~num_inputs:1 not_fn in
        let t2 = Truthtab.augment t ~ancillas:[ [| true |]; [| false |] ] in
        Alcotest.(check int) "vars" 3 t2.Truthtab.num_vars;
        Alcotest.(check bool) "first row" true
          (Truthtab.is_valid t2 [| false; true; true |]));
    Alcotest.test_case "all_rows order matches Table 2" `Quick (fun () ->
        match Truthtab.all_rows ~num_vars:2 with
        | [ [| false; false |]; [| false; true |]; [| true; false |]; [| true; true |] ] ->
          ()
        | _ -> Alcotest.fail "row order");
    Alcotest.test_case "duplicate rows rejected" `Quick (fun () ->
        match Truthtab.create ~num_vars:1 [ [| true |]; [| true |] ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected rejection");
  ]

let check_derives name fn ~num_inputs ~expect_ancillas =
  Alcotest.test_case name `Quick (fun () ->
      let t = Truthtab.of_function ~num_inputs fn in
      match Gen.derive ~seed:42 t with
      | None -> Alcotest.fail "no derivation found"
      | Some d ->
        Alcotest.(check int) "ancillas" expect_ancillas d.Gen.num_ancillas;
        Alcotest.(check bool) "verifies" true (Gen.verify d);
        Alcotest.(check bool) "fits hardware range" true
          (Scale.fits Scale.dwave_2000q d.Gen.problem))

let derive_tests =
  [ check_derives "derive NOT (no ancilla)" not_fn ~num_inputs:1 ~expect_ancillas:0;
    check_derives "derive AND (no ancilla)" and_fn ~num_inputs:2 ~expect_ancillas:0;
    check_derives "derive OR (no ancilla)" or_fn ~num_inputs:2 ~expect_ancillas:0;
    check_derives "derive NAND" (fun v -> not (and_fn v)) ~num_inputs:2 ~expect_ancillas:0;
    check_derives "derive NOR" (fun v -> not (or_fn v)) ~num_inputs:2 ~expect_ancillas:0;
    check_derives "derive XOR needs exactly one ancilla" xor_fn ~num_inputs:2
      ~expect_ancillas:1;
    check_derives "derive XNOR needs exactly one ancilla" (fun v -> not (xor_fn v))
      ~num_inputs:2 ~expect_ancillas:1;
    check_derives "derive 2:1 MUX" (fun v -> if v.(2) then v.(1) else v.(0)) ~num_inputs:3
      ~expect_ancillas:1;
    (* A 3-input AND has no direct quadratic realization (the LP's maximum
       gap is 0); the paper likewise builds AND3 from two AND2 cells plus an
       intermediate variable (Listing 4), i.e. one extra qubit. *)
    check_derives "derive AND3 needs one ancilla"
      (fun v -> v.(0) && v.(1) && v.(2))
      ~num_inputs:3 ~expect_ancillas:1;
    Alcotest.test_case "derive_exact refuses XOR without ancilla" `Quick (fun () ->
        let t = Truthtab.of_function ~num_inputs:2 xor_fn in
        match Gen.derive_exact t with
        | None -> ()
        | Some _ -> Alcotest.fail "XOR should be underivable without ancillas");
    Alcotest.test_case "AND gap is maximal-ish (>= 1 on hardware range)" `Quick (fun () ->
        let t = Truthtab.of_function ~num_inputs:2 and_fn in
        match Gen.derive_exact t with
        | None -> Alcotest.fail "no AND derivation"
        | Some d -> Alcotest.(check bool) "gap >= 1" true (d.Gen.gap >= 1.0));
    Alcotest.test_case "row_energy_coeffs layout" `Quick (fun () ->
        let coeffs = Gen.row_energy_coeffs ~num_vars:3 [| 1; -1; 1 |] in
        (* h_0 h_1 h_2 J01 J02 J12 *)
        Alcotest.(check (array (float 1e-12))) "layout"
          [| 1.0; -1.0; 1.0; -1.0; 1.0; -1.0 |] coeffs);
    Alcotest.test_case "coeff_names layout" `Quick (fun () ->
        Alcotest.(check (array string)) "names"
          [| "h_0"; "h_1"; "J_0,1" |] (Gen.coeff_names ~num_vars:2));
    Alcotest.test_case "paper Table 3 ancilla column solves XOR" `Quick (fun () ->
        (* Table 3: (Y,A,B,a) valid rows FFFF, TFTT, TTFF, FTTF;
           our column order is A,B,Y,a. *)
        let rows =
          [ [| false; false; false; false |];
            [| false; true; true; true |];
            [| true; false; true; false |];
            [| true; true; false; false |] ]
        in
        let t = Truthtab.create ~num_vars:4 rows in
        match Gen.derive_exact t with
        | None -> Alcotest.fail "Table 3 augmentation should be solvable"
        | Some d -> Alcotest.(check bool) "verifies" true (Gen.verify d));
  ]

let qcheck_tests =
  let random_function_derives =
    QCheck.Test.make ~name:"random 2-input functions derive with <= 1 ancilla" ~count:16
      QCheck.(int_bound 15)
      (fun code ->
         let f v =
           let idx = ((if v.(0) then 2 else 0) lor if v.(1) then 1 else 0) in
           (code lsr idx) land 1 = 1
         in
         let t = Truthtab.of_function ~num_inputs:2 f in
         match Gen.derive ~seed:7 t with
         | None -> false
         | Some d -> d.Gen.num_ancillas <= 1 && Gen.verify d)
  in
  [ QCheck_alcotest.to_alcotest random_function_derives ]

let adjacency_range_tests =
  [ Alcotest.test_case "cells rederive inside the Advantage box" `Quick (fun () ->
        List.iter
          (fun (name, fn, num_inputs) ->
             let t = Truthtab.of_function ~num_inputs fn in
             match Gen.derive ~range:Scale.advantage ~seed:42 t with
             | None -> Alcotest.fail (name ^ ": no derivation in Advantage range")
             | Some d ->
               Alcotest.(check bool) (name ^ " verifies") true (Gen.verify d);
               Alcotest.(check bool) (name ^ " fits the box") true
                 (Scale.fits Scale.advantage d.Gen.problem);
               Alcotest.(check bool) (name ^ " gap positive") true
                 (d.Gen.gap >= 1.0))
          [ ("AND", and_fn, 2); ("OR", or_fn, 2); ("XOR", xor_fn, 2);
            ("MUX", (fun v -> if v.(2) then v.(1) else v.(0)), 3) ]);
    Alcotest.test_case "adjacency: NOT without its coupler is underivable" `Quick
      (fun () ->
         (* With J pinned to zero the rows FT/TF can never sit strictly below
            FF/TT — the fields alone cannot separate them. *)
         let t = Truthtab.of_function ~num_inputs:1 not_fn in
         match Gen.derive_exact ~adjacency:(fun _ _ -> false) t with
         | None -> ()
         | Some _ -> Alcotest.fail "h-only NOT cell cannot separate its rows");
    Alcotest.test_case "adjacency: forbidden pairs carry zero coupling" `Quick
      (fun () ->
         (* Forbid the input-input coupler on OR; the LP must route around it
            (possibly via an ancilla) or give up — never emit it. *)
         let t = Truthtab.of_function ~num_inputs:2 or_fn in
         let adjacency i j = not ((i, j) = (0, 1) || (i, j) = (1, 0)) in
         match Gen.derive ~seed:42 ~adjacency t with
         | None -> ()
         | Some d ->
           Alcotest.(check bool) "verifies" true (Gen.verify d);
           Alcotest.(check (float 1e-9)) "J01 pinned to zero" 0.0
             (Problem.get_j d.Gen.problem 0 1));
  ]

let suite = lp_tests @ truthtab_tests @ derive_tests @ qcheck_tests @ adjacency_range_tests

(* The five cells of the Pegasus study derive and verify under both
   coefficient boxes, the 2000Q's and the Advantage's. *)
let both_ranges_tests =
  [ Alcotest.test_case "cells derive under both the 2000Q and Advantage boxes" `Quick
      (fun () ->
         List.iter
           (fun (name, fn, num_inputs) ->
              let t = Truthtab.of_function ~num_inputs fn in
              List.iter
                (fun (range_name, range) ->
                   match Gen.derive ~range t with
                   | None -> Alcotest.failf "%s: underivable in the %s range" name range_name
                   | Some d ->
                     Alcotest.(check bool) (name ^ " verifies in " ^ range_name) true
                       (Gen.verify d))
                [ ("2000Q", Scale.dwave_2000q); ("Advantage", Scale.advantage) ])
           [ ("AND", and_fn, 2); ("OR", or_fn, 2); ("XOR", xor_fn, 2);
             ("MUX", (fun v -> if v.(0) then v.(2) else v.(1)), 3);
             ("AOI3", (fun v -> not ((v.(0) && v.(1)) || v.(2))), 3) ]) ]

let suite = suite @ both_ranges_tests
