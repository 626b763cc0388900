(* The repository benchmark. See README.md for the workloads, the metrics
   and the layer each one measures.

     perfbench --workload fig2-sweep|contended|serve-mix
               [--seed N] [--seconds S] [--trace 0|1]

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones, and
   the spans are written as Chrome trace-event JSON under perfbench/out/. *)

module M = Measure

let end_to_end =
  [
    ("host_s", "s"); ("setup_s", "s"); ("peak_heap_mb", "MB");
    ("sim_ms_geomean", "ms"); ("speedup_geomean", "x");
    ("sojourn_p50_us", "us"); ("sojourn_p99_us", "us");
    ("goodput_per_ms", "1/ms"); ("host_us_per_req", "us");
  ]

let per_layer =
  [
    ("apps.reference_s", "s"); ("apps.reference_cold_s", "s");
    ("apps.baseline_host_s", "s"); ("apps.baseline_alloc_mwords", "Mwords");
    ("coherence.faults", "count"); ("coherence.retries", "count");
    ("coherence.coalesced", "count"); ("coherence.useful_frac", "ratio");
    ("coherence.fault_p50_us", "us"); ("coherence.fault_p99_us", "us");
    ("coherence.host_us_per_attempt", "us");
    ("coherence.alloc_words_per_attempt", "words");
    ("fabric.msgs", "count"); ("fabric.bytes", "bytes");
    ("fabric.rdma_frac", "ratio"); ("fabric.pool_waits", "count");
    ("fabric.host_ns_per_msg", "ns");
    ("process.delegations", "count"); ("process.migrations", "count");
    ("process.migration_fwd_frac", "ratio");
    ("serve.offered", "count"); ("serve.completed", "count");
    ("serve.shed", "count"); ("serve.rejected", "count");
    ("serve.queue_peak", "count"); ("serve.host_growth", "x");
    ("serve.alloc_words_per_req", "words");
    ("serve.heap_growth_mwords", "Mwords");
    ("trace.host_s", "s");
  ]

let workloads = [ "fig2-sweep"; "contended"; "serve-mix" ]

let usage =
  "perfbench --workload fig2-sweep|contended|serve-mix [--seed N] \
   [--seconds S] [--trace 0|1]"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

(* Number formatting keeps every digit a float carries. *)
let json_number v = Printf.sprintf "%.17g" v

let print_result ~trace =
  let table = if trace then per_layer else end_to_end in
  let kind = if trace then M.Per_layer else M.End_to_end in
  let emitted = List.filter (fun (k, _, _, _) -> k = kind) (List.rev !M.metrics) in
  let value (name, unit_) =
    match List.find_opt (fun (_, n, _, _) -> n = name) emitted with
    | Some (_, _, u, v) ->
        if u <> unit_ then die "metric %s emitted in %s, declared in %s" name u unit_;
        M.check (Float.is_finite v) "metric %s is finite (%f)" name v;
        (name, unit_, if Float.is_finite v then v else 0.0)
    | None when trace ->
        (* A layer this workload does not exercise. *)
        (name, unit_, 0.0)
    | None -> die "end-to-end metric %s not measured" name
  in
  let values = List.map value table in
  List.iter (fun (n, u, v) -> Printf.printf "  %-36s %14.6g %s\n" n v u) values;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!M.failed = 0) !M.attempted !M.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (json_number v) u)
          values))

let () =
  let workload = ref "" and seed = ref None and seconds = ref 20.0
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " fig2-sweep | contended | serve-mix");
      ("--seed", Arg.Int (fun s -> seed := Some s),
       " workload seed; replaces every app's default seed");
      ("--seconds", Arg.Set_float seconds, " how long to measure (default 20)");
      ("--trace", Arg.Set_int trace, " 1 = per-layer metrics and spans");
    ]
    (fun a -> die "unexpected argument %S; usage: %s" a usage)
    usage;
  if not (List.mem !workload workloads) then die "unknown workload %S; usage: %s" !workload usage;
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !seconds <= 0.0 then die "--seconds must be positive";
  let traced = !trace = 1 in
  let spans = Spans.create ~enabled:traced in
  let seed_label = match !seed with Some s -> string_of_int s | None -> "default" in
  Printf.printf "perfbench %s seed %s, %.0f s, trace %d\n%!" !workload seed_label
    !seconds !trace;
  Spans.with_span spans ~cat:"workload" !workload (fun () ->
      match !workload with
      | "serve-mix" ->
          Serve_mix.report
            (Serve_mix.run ~spans ~user_seed:!seed ~seconds:!seconds)
      | w ->
          Rows.report
            (Rows.run ~spans ~user_seed:!seed ~seconds:!seconds
               (if w = "fig2-sweep" then Rows.fig2_sweep else Rows.contended)));
  Printf.printf "  determinism digest %s (simulated outputs and exact counts)\n"
    (Digest.to_hex (Digest.string (Buffer.contents M.run_digest)));
  if !M.drifts > 0 then Printf.printf "  DETERMINISM DRIFT: %d mismatches\n" !M.drifts;
  if traced then begin
    let dir = "perfbench/out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Printf.sprintf "%s/%s-seed-%s.trace.json" dir !workload seed_label in
    Spans.write_chrome spans path;
    Printf.printf "  %d spans written to %s; self time by layer:\n" (Spans.count spans) path;
    List.iter (fun (cat, s) -> Printf.printf "    %-16s %8.3f s\n" cat s) (Spans.self_times spans)
  end;
  print_result ~trace:traced;
  exit (if !M.failed = 0 then 0 else 1)
