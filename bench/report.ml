(* The BENCH_*.json file format, written and read in one place.

   Every bench report is a JSON object built as a [Json.t] field list;
   [write] stamps it with the git commit and prints it one member per
   line. The --check-against gate reads a committed report back with
   [Json.parse] and compares per-stage seconds over the stage names
   both sides share. *)

module Json = Core.Query.Json

(* Identity stamp: the git commit of the working tree, so the BENCH_*
   trajectory is comparable across commits.

   Re-stamped BENCH artifacts themselves (BENCH_*.json in the repo
   root) do not count as dirt — the whole point of a bench run is to
   rewrite them — but any other modification taints the stamp with
   "-dirty" and a loud warning, because a "-dirty" hash is
   unreproducible: nobody can check out the code the numbers came
   from. *)
let run_git argv =
  let out, inp = Unix.pipe ~cloexec:false () in
  match
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process "git" (Array.of_list ("git" :: argv)) Unix.stdin inp
        null
    in
    Unix.close null;
    Unix.close inp;
    let ic = Unix.in_channel_of_descr out in
    let b = Buffer.create 256 in
    (try
       while true do
         Buffer.add_channel b ic 1
       done
     with End_of_file -> ());
    close_in ic;
    (snd (Unix.waitpid [] pid), Buffer.contents b)
  with
  | Unix.WEXITED 0, s -> Some s
  | _ -> None
  | exception _ ->
    (try Unix.close inp with Unix.Unix_error _ -> ());
    (try Unix.close out with Unix.Unix_error _ -> ());
    None

let is_bench_artifact path =
  let base = Filename.basename path in
  String.length base > 6
  && String.sub base 0 6 = "BENCH_"
  && Filename.check_suffix base ".json"

let git_stamp () =
  match run_git [ "rev-parse"; "--short"; "HEAD" ] with
  | None -> "unknown"
  | Some head ->
    let head = String.trim head in
    let dirt =
      match run_git [ "status"; "--porcelain" ] with
      | None -> [ "(git status failed)" ]
      | Some status ->
        String.split_on_char '\n' status
        |> List.filter_map (fun line ->
               if String.length line < 4 then None
               else
                 let path = String.sub line 3 (String.length line - 3) in
                 (* "R old -> new" lines: judge the destination. *)
                 let path =
                   match String.index_opt path '>' with
                   | Some i when i > 0 && path.[i - 1] = '-' ->
                     String.trim
                       (String.sub path (i + 1) (String.length path - i - 1))
                   | _ -> path
                 in
                 if is_bench_artifact path then None else Some path)
    in
    (match dirt with
     | [] -> head
     | paths ->
       Printf.eprintf
         "bench: WARNING: stamping a dirty tree (%s-dirty): %d modified \
          path(s) beyond BENCH_*.json (e.g. %s); the recorded numbers \
          cannot be attributed to a commit\n%!"
         head (List.length paths) (List.hd paths);
       head ^ "-dirty")

let write path fields =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string_indented
           (Json.Obj (("git", Json.Str (git_stamp ())) :: fields))));
  Printf.printf "Wrote %s\n%!" path

(* The "stages" member of a pipeline report: one row per Stage line. *)
let stages (lines : Core.Perf.Stage.line list) =
  ( "stages",
    Json.Arr
      (List.map
         (fun (l : Core.Perf.Stage.line) ->
           Json.Obj
             [ ("name", Json.Str l.l_name);
               ("seconds", Json.Num l.l_seconds);
               ("entries", Json.Num (float_of_int l.l_entries)) ])
         lines) )

(* The [(name, seconds)] stage rows of a written report. Members this
   reader does not know are ignored; a file without a "stages" array,
   or with a row lacking its name or seconds, is an error. *)
let load_stages path : ((string * float) list, string) result =
  let row r =
    match (Json.member "name" r, Json.member "seconds" r) with
    | Some (Json.Str name), Some (Json.Num s) -> Some (name, s)
    | _ -> None
  in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
    match Json.parse text with
    | Error msg -> Error msg
    | Ok report -> (
      match Option.bind (Json.member "stages" report) Json.to_list with
      | None -> Error "no \"stages\" array"
      | Some rows ->
        let parsed = List.filter_map row rows in
        if List.length parsed = List.length rows then Ok parsed
        else Error "a stage row lacks its name or seconds"))

(* --- stage-set comparison ------------------------------------------ *)

type verdict = {
  shared_baseline_s : float;  (** baseline seconds over shared stages *)
  shared_now_s : float;  (** current seconds over the same stages *)
  shared : string list;  (** the stage names both sides have *)
  only_baseline : string list;  (** gone since the baseline was written *)
  only_now : string list;  (** added since the baseline was written *)
}

(* Compare over the intersection of stage names: stages only one side
   knows are reported, not gated — a baseline from before a stage
   existed must not fail the build for growing the pipeline, and a
   removed stage must not let a regression hide inside the smaller
   total. *)
let compare_stages (baseline : (string * float) list)
    (now : (string * float) list) : verdict =
  let base_tbl = Hashtbl.create 32 in
  List.iter (fun (name, s) -> Hashtbl.replace base_tbl name s) baseline;
  let now_tbl = Hashtbl.create 32 in
  List.iter (fun (name, s) -> Hashtbl.replace now_tbl name s) now;
  let shared, only_now =
    List.fold_left
      (fun (shared, only) (name, _) ->
        if Hashtbl.mem base_tbl name then (name :: shared, only)
        else (shared, name :: only))
      ([], []) now
  in
  let only_baseline =
    List.filter_map
      (fun (name, _) -> if Hashtbl.mem now_tbl name then None else Some name)
      baseline
  in
  let sum tbl names =
    List.fold_left
      (fun a n -> a +. Option.value ~default:0.0 (Hashtbl.find_opt tbl n))
      0.0 names
  in
  let shared = List.rev shared in
  {
    shared_baseline_s = sum base_tbl shared;
    shared_now_s = sum now_tbl shared;
    shared;
    only_baseline;
    only_now = List.rev only_now;
  }
