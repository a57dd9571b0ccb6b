(* Fuzz campaign runner for the CI fuzz-smoke job.

   Drives the mutational harness over seeded corruptions of
   writer-produced ELFs and enforces the robustness contract: every
   case terminates with Ok or a structured error. Exits nonzero on
   any contained crash, and on blowing the wall-clock budget (the
   hang proxy — a pathological input that stalls the analyzer shows
   up here even though each case "terminates").

   A second campaign drives seeded mutations of a format-4 index
   image through Query.of_image with the same contract: structured
   errors or a working index, never a crash. [--image-cases 0]
   skips it.

   Usage (a bad or unknown argument exits 2):
     dune exec bench/fuzz.exe -- [--seed N] [--cases N] [--packages N]
                                 [--image-cases N] [--max-seconds S] *)

module H = Core.Fuzz.Harness

let cfg = ref H.default_config
let image_cases = ref 1_000
let max_seconds = ref None

let bad name what v =
  raise (Arg.Bad (Printf.sprintf "%s expects a %s, got %d" name what v))

let positive name set doc =
  ( name,
    Arg.Int (fun v -> if v > 0 then set v else bad name "positive integer" v),
    doc )

let specs =
  Arg.align
    [ ( "--seed",
        Arg.Int (fun v -> cfg := { !cfg with H.seed = v }),
        "N campaign seed; a failure replays from it (61453)" );
      positive "--cases"
        (fun v -> cfg := { !cfg with H.cases = v })
        "N mutated ELF inputs (1000)";
      positive "--packages"
        (fun v -> cfg := { !cfg with H.base_packages = v })
        "N packages in the seed corpus (25)";
      ( "--image-cases",
        Arg.Int
          (fun v ->
            if v >= 0 then image_cases := v
            else bad "--image-cases" "non-negative integer" v),
        "N mutated index images; 0 skips that campaign (1000)" );
      positive "--max-seconds"
        (fun v -> max_seconds := Some v)
        "S fail when the campaign takes longer" ]

let () =
  Printexc.record_backtrace true;
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unknown argument " ^ a)))
    "usage: bench/fuzz.exe [OPTION...]";
  let cfg = !cfg in
  Printf.printf
    "Fuzzing the ingestion path: %d cases over a %d-package corpus \
     (seed %d, replay with --seed %d).\n%!"
    cfg.H.cases cfg.H.base_packages cfg.H.seed cfg.H.seed;
  let t0 = Unix.gettimeofday () in
  let report = H.run ~config:cfg () in
  let wall = Unix.gettimeofday () -. t0 in
  Fmt.pr "%a" H.pp_report report;
  Printf.printf "Campaign wall time: %.1fs\n%!" wall;
  let failed = ref false in
  if report.H.r_crashes <> [] then begin
    Printf.eprintf "fuzz: FAIL: %d uncaught crash(es); replay with seed %d\n"
      (List.length report.H.r_crashes)
      report.H.r_seed;
    failed := true
  end;
  if !image_cases > 0 then begin
    Printf.printf
      "Fuzzing the index-image loader: %d cases (seed %d).\n%!" !image_cases
      cfg.H.seed;
    let ireport =
      H.run_images ~config:{ cfg with H.cases = !image_cases } ()
    in
    Fmt.pr "%a" H.pp_image_report ireport;
    if ireport.H.ii_crashes <> [] then begin
      Printf.eprintf
        "fuzz: FAIL: %d uncaught image-loader crash(es); replay with seed \
         %d\n"
        (List.length ireport.H.ii_crashes)
        ireport.H.ii_seed;
      failed := true
    end
  end;
  (match !max_seconds with
   | Some budget when wall > float_of_int budget ->
     Printf.eprintf
       "fuzz: FAIL: campaign exceeded its %ds wall-clock budget (%.1fs) — \
        some input stalls the analyzer\n"
       budget wall;
     failed := true
   | _ -> ());
  if !failed then exit 1;
  print_endline "Fuzz campaign: OK"
