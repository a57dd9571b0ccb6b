(* The benchmark runner.

     run.exe --workload W --seed N [--seconds S] [--trace 0|1]
     run.exe --calibrate K [--workload W] [--seed N] [--seconds S]

   One run builds its inputs from the seed, measures workload W for S
   seconds, checks every answer, prints a human summary on stderr and,
   as the last line of stdout, one JSON object: the end-to-end metrics,
   or with --trace 1 the per-layer metrics (the spans and the program's
   own stage report go to .benchwork/trace-W-seedN.json). It exits 1
   when an answer was wrong or the load was invalid, and 2 when the run
   could not complete.

   --calibrate K runs every workload (or just --workload W) twice K
   times, each run in a fresh process with seeds N .. N+K-1, and prints
   as markdown the raw values, each set's spread, and the second set's
   median against the first under the bounds in BENCHMARK.json. Run it
   from the repository root through benchmark/run.sh, which builds
   first. *)

open Lapis_bench
module Json = Core.Query.Json

let workloads = [ "ingest"; "evolve"; "serve-mix"; "fleet-scatter" ]

let workload = ref ""
let seed = ref 1
let seconds = ref 20.0
let trace = ref 0
let calibrate = ref 0

let work_dir = ".benchwork"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let run_one name =
  let dir = Filename.concat work_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  Sys.mkdir dir 0o755;
  at_exit (fun () -> Serving.cleanup (); rm_rf dir);
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  let report =
    match name with
    | "ingest" -> Batch.ingest ~seed ~seconds ~trace:traced
    | "evolve" -> Batch.evolve ~seed ~seconds ~trace:traced
    | "serve-mix" -> Serving.serve_mix ~seed ~seconds ~trace:traced ~dir
    | "fleet-scatter" -> Serving.fleet_scatter ~seed ~seconds ~trace:traced ~dir
    | w -> failwith ("unknown workload " ^ w)
  in
  let catalog =
    List.map (fun (n, _, _) -> n) (if traced then Harness.per_layer else Harness.end_to_end)
  in
  let found = List.rev (if traced then report.Harness.layers else report.Harness.e2e) in
  let metrics =
    List.map
      (fun n ->
        match List.assoc_opt n found with
        | Some v -> (n, v)
        | None -> failwith ("workload did not measure " ^ n))
      catalog
  in
  if traced then begin
    let path =
      Filename.concat work_dir (Printf.sprintf "trace-%s-seed%d.json" name seed)
    in
    Trace.write path
      ~extra:
        ([ ("workload", Json.Str name);
           ("seed", Json.Num (float_of_int seed));
           ("seconds", Json.Num seconds);
           ( "end_to_end",
             Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) report.Harness.e2e) );
           ("per_layer", Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) metrics)) ]
        @ report.Harness.extra);
    Printf.eprintf "# trace written to %s\n" path
  end;
  let correct = report.Harness.problems = [] && report.Harness.failed = 0 in
  Printf.eprintf "# %s seed %d: %d attempted, %d failed%s\n" name seed
    report.Harness.attempted report.Harness.failed
    (if correct then "" else " -- NOT CORRECT");
  List.iter (fun p -> Printf.eprintf "#   %s\n" p) report.Harness.problems;
  List.iter
    (fun (n, v) ->
      Printf.eprintf "  %-34s %14.6g %s\n" n v
        (Option.value ~default:"" (Harness.unit_of n)))
    metrics;
  print_endline
    (Harness.result_line
       { Harness.correct; attempted = report.Harness.attempted;
         failed = report.Harness.failed; metrics });
  if not correct then exit 1

(* --- calibration ----------------------------------------------------- *)

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let child_result name seed =
  let args =
    [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
       "--seconds"; Printf.sprintf "%g" !seconds; "--trace"; "0" |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
    match Json.parse (last_line out) with
    | Ok j ->
      let metrics = Option.value ~default:(Json.Obj []) (Json.member "metrics" j) in
      List.map
        (fun (n, _, _) ->
          match Option.bind (Json.member n metrics) (Json.member "value") with
          | Some (Json.Num v) -> (n, v)
          | _ -> failwith (Printf.sprintf "%s seed %d: no %s" name seed n))
        Harness.end_to_end
    | Error m -> failwith (Printf.sprintf "%s seed %d: bad result line: %s" name seed m))
  | _ -> failwith (Printf.sprintf "%s seed %d failed" name seed)

let bounds () =
  match Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
  | Ok j ->
    (match Json.member "end_to_end" j with
     | Some (Json.Arr l) ->
       List.filter_map
         (fun m ->
           match (Json.member "name" m, Json.member "bound" m) with
           | Some (Json.Str n), Some (Json.Num b) -> Some (n, b)
           | _ -> None)
         l
     | _ -> [])
  | Error _ -> []

(* Two sets of [k] runs per workload. A bound holds when each set's
   spread stays within it and the second set's median is not worse
   than the first's by more. *)
let calibrate_all ~only k =
  let bounds = bounds () in
  let seeds = List.init k (fun i -> !seed + i) in
  Printf.printf
    "Two sets per workload, each of %d runs in fresh processes with seeds %d..%d, \
     --seconds %g.\n\n"
    k !seed (!seed + k - 1) !seconds;
  List.iter
    (fun name ->
      let set tag =
        List.map
          (fun s ->
            let r = child_result name s in
            Printf.eprintf "# %s set %s seed %d done\n%!" name tag s;
            r)
          seeds
      in
      let a = set "A" in
      let b = set "B" in
      let table tag runs =
        Printf.printf "### %s, set %s\n\n| metric | %s | median | spread |\n|---|%s---|---|\n"
          name tag
          (String.concat " | " (List.map (Printf.sprintf "seed %d") seeds))
          (String.concat "" (List.map (fun _ -> "---|") seeds));
        List.iter
          (fun (n, u, _) ->
            let vals = List.map (List.assoc n) runs in
            Printf.printf "| %s (%s) | %s | %.4g | %.3f |\n" n u
              (String.concat " | " (List.map (Printf.sprintf "%.4g") vals))
              (Harness.median vals) (Harness.spread vals))
          Harness.end_to_end;
        print_newline ()
      in
      Printf.printf "## %s\n\n" name;
      table "A" a;
      table "B" b;
      Printf.printf
        "| metric | median A | median B | B vs A | spread A | spread B | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|\n";
      List.iter
        (fun (n, _, better) ->
          let va = List.map (List.assoc n) a and vb = List.map (List.assoc n) b in
          let ma = Harness.median va and mb = Harness.median vb in
          let sa = Harness.spread va and sb = Harness.spread vb in
          let bound = Option.value ~default:nan (List.assoc_opt n bounds) in
          let verdict =
            if Harness.regressed ~better ~bound ~base:ma ~cur:mb then "median regressed"
            else if n <> "setup_s" && Float.max sa sb > bound then "spread over bound"
            else "ok"
          in
          Printf.printf "| %s | %.4g | %.4g | %+.1f%% | %.3f | %.3f | %.2f | %s |\n" n ma mb
            (100.0 *. ((mb /. ma) -. 1.0)) sa sb bound verdict)
        Harness.end_to_end;
      print_newline ())
    (if only = "" then workloads else [ only ])

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* exit runs the at_exit cleanup, which stops every spawned process *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W ingest | evolve | serve-mix | fleet-scatter");
      ("--seed", Arg.Set_int seed, "N input seed (1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run (20)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (0)");
      ("--calibrate", Arg.Set_int calibrate, "K run two sets of K runs per workload") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "run.exe --workload W --seed N [--seconds S] [--trace 0|1]";
  if !calibrate > 0 then calibrate_all ~only:!workload !calibrate
  else if not (List.mem !workload workloads) then begin
    prerr_endline "run.exe: --workload must be one of ingest, evolve, serve-mix, fleet-scatter";
    exit 2
  end
  else if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "run.exe: --trace takes 0 or 1";
    exit 2
  end
  else
    match run_one !workload with
    | () -> ()
    | exception e ->
      Printf.eprintf "run.exe: %s failed: %s\n" !workload (Printexc.to_string e);
      exit 2
