(** Paper-reproduction harness.

    - [dune exec bench/main.exe] runs every experiment in
      [Experiments.all]: E1-E15 (DESIGN.md's index of the paper's tables
      and figures) and the ext1-ext9 extensions, each printing
      paper-vs-measured rows.
    - [dune exec bench/main.exe -- e12 e14] runs a subset.  An id that is
      not in [Experiments.all] runs nothing: the valid ids go to stderr
      and the exit status is 2.

    The per-stage span table of one compile + run is [vqa run FILE --trace];
    per-layer timings of the whole system are perfbench's
    ([perfbench/README.md]). *)

let () =
  let ids = List.tl (Array.to_list Sys.argv) in
  let known id = List.exists (fun (eid, _, _) -> eid = id) Experiments.all in
  (match List.filter (fun id -> not (known id)) ids with
   | [] -> ()
   | unknown ->
     Printf.eprintf "unknown experiment%s: %s\nvalid ids: %s\n"
       (if List.length unknown > 1 then "s" else "")
       (String.concat " " unknown)
       (String.concat " " (List.map (fun (eid, _, _) -> eid) Experiments.all));
     exit 2);
  let selected =
    if ids = [] then Experiments.all
    else List.map (fun id -> List.find (fun (eid, _, _) -> eid = id) Experiments.all) ids
  in
  print_endline "Reproduction of 'Targeting Classical Code to a Quantum Annealer' (ASPLOS'19)";
  print_endline "Absolute numbers come from a classical substrate; compare shapes, not values.";
  List.iter
    (fun (_, _, run) ->
       let t0 = Unix.gettimeofday () in
       run ();
       Printf.printf "[%.1fs]\n" (Unix.gettimeofday () -. t0))
    selected
