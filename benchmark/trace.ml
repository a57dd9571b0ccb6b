(* In-memory spans around the benchmark's calls into each layer: name,
   start, end, parent span and request id. Nothing is written until
   the run ends, and with tracing off [span] is a plain call, so the
   untraced end-to-end numbers pay nothing for it. Spans nest on the
   benchmark's single thread, so a span's children never overlap and
   its self time is its duration minus theirs. *)

module Json = Core.Query.Json

type span = {
  id : int;
  name : string;
  parent : int;  (* -1: a root *)
  req : int;  (* request id, -1 when the span is not one request's *)
  start_ns : int;
  mutable stop_ns : int;
}

let enabled = ref false
let now_ns () = Int64.to_int (Core.Perf.Stage.now_ns ())

(* Request spans arrive by the hundred thousand; keep the first ones
   and count the rest, which still enter the per-name totals. *)
let max_kept = 50_000

let kept : span list ref = ref []
let n_kept = ref 0
let dropped = ref 0
let stack : int list ref = ref []
let next_id = ref 0

(* name -> (count, total ns, children ns) *)
let totals : (string, int * int * int) Hashtbl.t = Hashtbl.create 32
let child_ns : (int, int) Hashtbl.t = Hashtbl.create 64

let close sp =
  let dur = sp.stop_ns - sp.start_ns in
  let kids = Option.value ~default:0 (Hashtbl.find_opt child_ns sp.id) in
  Hashtbl.remove child_ns sp.id;
  let c, t, k =
    Option.value ~default:(0, 0, 0) (Hashtbl.find_opt totals sp.name)
  in
  Hashtbl.replace totals sp.name (c + 1, t + dur, k + kids);
  if sp.parent >= 0 then
    Hashtbl.replace child_ns sp.parent
      (dur + Option.value ~default:0 (Hashtbl.find_opt child_ns sp.parent));
  if !n_kept < max_kept then begin
    kept := sp :: !kept;
    incr n_kept
  end
  else incr dropped

let open_span ~req name start =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  { id; name; parent; req; start_ns = start; stop_ns = start }

let span ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let sp = open_span ~req name (now_ns ()) in
    stack := sp.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        sp.stop_ns <- now_ns ();
        stack := List.tl !stack;
        close sp)
      f
  end

(* A span whose times were taken elsewhere (a request's scheduled send
   and its response), parented to whatever span is open. *)
let record ?(req = -1) name ~start_ns ~stop_ns =
  if !enabled then begin
    let sp = open_span ~req name start_ns in
    sp.stop_ns <- stop_ns;
    close sp
  end

(* (name, count, total s, self s), sorted by name. *)
let summary () =
  Hashtbl.fold
    (fun name (c, t, k) acc ->
      (name, c, float_of_int t /. 1e9, float_of_int (t - k) /. 1e9) :: acc)
    totals []
  |> List.sort compare

let write path ~extra =
  let span_json sp =
    Json.Obj
      [ ("id", Json.Num (float_of_int sp.id));
        ("name", Json.Str sp.name);
        ("parent", Json.Num (float_of_int sp.parent));
        ("req", Json.Num (float_of_int sp.req));
        ("start_ns", Json.Num (float_of_int sp.start_ns));
        ("end_ns", Json.Num (float_of_int sp.stop_ns)) ]
  in
  let summary_json =
    List.map
      (fun (name, c, t, s) ->
        Json.Obj
          [ ("name", Json.Str name);
            ("count", Json.Num (float_of_int c));
            ("total_s", Json.Num t);
            ("self_s", Json.Num s) ])
      (summary ())
  in
  let doc =
    Json.Obj
      (extra
      @ [ ("span_summary", Json.Arr summary_json);
          ("spans_dropped", Json.Num (float_of_int !dropped));
          ("spans", Json.Arr (List.rev_map span_json !kept)) ])
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')
