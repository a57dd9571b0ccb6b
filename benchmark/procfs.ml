(* What the benchmark reads about processes from /proc: CPU time,
   resident memory, threads and context switches. Linux only, like the
   serving stack's own deployment. *)

(* USER_HZ: the unit of utime/stime in /proc/<pid>/stat, 100 on every
   Linux architecture the kernel exports to user space. *)
let clk_tck = 100.0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let alive pid = Sys.file_exists (Printf.sprintf "/proc/%d" pid)

(* utime + stime of the whole process (every thread, live or exited),
   in seconds. The command name in field 2 may hold spaces or parens,
   so fields are counted from the last ')'. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest =
    let i = String.rindex s ')' in
    String.sub s (i + 2) (String.length s - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* rest starts at field 3 (state); utime and stime are fields 14-15 *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck

let status_field text key =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = key ->
           let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
           (match String.split_on_char ' ' v with
            | n :: _ -> float_of_string_opt n
            | [] -> None)
         | _ -> None)

let status pid key =
  Option.value ~default:0.0
    (status_field (read_file (Printf.sprintf "/proc/%d/status" pid)) key)

(* VmRSS / VmHWM are reported in kB. *)
let rss_mb pid = status pid "VmRSS" /. 1024.0
let hwm_mb pid = status pid "VmHWM" /. 1024.0
let threads pid = int_of_float (status pid "Threads")

(* Voluntary plus involuntary switches, summed over the live threads. *)
let ctx_switches pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "%s/%s/status" dir tid) with
      | text ->
        let get k = Option.value ~default:0.0 (status_field text k) in
        acc +. get "voluntary_ctxt_switches" +. get "nonvoluntary_ctxt_switches"
      | exception Sys_error _ -> acc)
    0.0
    (try Sys.readdir dir with Sys_error _ -> [||])

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
