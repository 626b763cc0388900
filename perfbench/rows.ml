(* The closed-loop workloads: each row is one application run, start to
   finish, on a fixed input. *)

open Dex_apps
module A = App_common
module M = Measure
module Process = Dex_core.Process
module Cluster = Dex_core.Cluster
module Stats = Dex_sim.Stats
module Histogram = Dex_sim.Histogram
module Fabric = Dex_net.Fabric

type app = {
  name : string;
  default_seed : int;  (** the seed the app's own [run] defaults to *)
  run : nodes:int -> variant:A.variant -> ?seed:int -> unit -> A.result;
  body : (A.ctx -> Process.thread -> int64) option;
      (** apps that expose their body also run through {!A.run_app} with a
          wrapper that keeps [ctx], reaching the process and cluster *)
  reference : seed:int -> int64;  (** host reference checksum *)
}

let ep =
  {
    name = "EP";
    default_seed = 17;
    run = (fun ~nodes ~variant ?seed () -> Ep.run ~nodes ~variant ?seed ());
    body = Some (Ep.body Ep.default_params);
    reference = (fun ~seed -> Ep.reference_checksum Ep.default_params ~seed);
  }

let bfs =
  {
    name = "BFS";
    default_seed = 31;
    run = (fun ~nodes ~variant ?seed () -> Bfs.run ~nodes ~variant ?seed ());
    body = None;
    reference =
      (fun ~seed ->
        Int64.of_int (Bfs.reference_level_sum Bfs.default_params ~seed));
  }

let kmn =
  {
    name = "KMN";
    default_seed = 13;
    run = (fun ~nodes ~variant ?seed () -> Kmn.run ~nodes ~variant ?seed ());
    body = Some (Kmn.body Kmn.default_params);
    reference = (fun ~seed -> Kmn.reference_checksum Kmn.default_params ~seed);
  }

let bt =
  {
    name = "BT";
    default_seed = 23;
    run = (fun ~nodes ~variant ?seed () -> Npb_bt.run ~nodes ~variant ?seed ());
    body = None;
    reference =
      (fun ~seed ->
        A.checksum_of_float
          (Npb_bt.reference_residual Npb_bt.default_params ~seed));
  }

let ft =
  {
    name = "FT";
    default_seed = 29;
    run = (fun ~nodes ~variant ?seed () -> Npb_ft.run ~nodes ~variant ?seed ());
    body = None;
    reference =
      (fun ~seed ->
        A.checksum_of_float (Npb_ft.reference_checksum Npb_ft.default_params ~seed));
  }

type row = { app : app; variant : A.variant; nodes : int }

let row app variant nodes = { app; variant; nodes }
let row_name r = Printf.sprintf "%s/%s@%d" r.app.name (A.variant_name r.variant) r.nodes

(* fig2-sweep: the paper's Figure 2 shape for two apps whose host work is
   mostly application computation (EP draws 268 M words per row, BFS runs
   its host BFS per row) and whose protocol traffic is light. *)
let fig2_sweep =
  [
    row ep Baseline 1; row ep Initial 8; row ep Optimized 8;
    row bfs Baseline 1; row bfs Initial 8; row bfs Optimized 8;
  ]

(* contended: write-shared pages on 8 nodes (KMN accumulators, BT's mutex
   and barriers, FT's all-to-all transpose), so host work is dominated by
   the simulator, fabric, protocol and process layers. The Baseline rows
   anchor each app's checksum and its speedup. *)
let contended =
  [
    row kmn Baseline 1; row kmn Initial 8; row kmn Optimized 8;
    row bt Baseline 1; row bt Initial 8;
    row ft Baseline 1; row ft Initial 8;
  ]

(* What the body wrapper reaches beyond {!A.result}. *)
type capture = {
  fault_lat : Histogram.t;
  delegations : int;
  fwd_ns : int list;  (** forward migration cost, origin + remote side *)
  fabric : (string * int) list;
  pool_waits : int;
}

let capture (c : A.ctx) =
  let fab = Cluster.fabric c.cl in
  {
    fault_lat = Dex_proto.Coherence.fault_latencies (Process.coherence c.proc);
    delegations = Stats.get (Process.stats c.proc) "delegation";
    fwd_ns =
      List.filter_map
        (fun (m : Process.migration_record) ->
          if m.m_direction = `Forward then Some (m.m_origin_ns + m.m_remote_ns)
          else None)
        (Process.migration_log c.proc);
    fabric = Stats.to_list (Fabric.stats fab);
    pool_waits =
      Fabric.send_pool_waits fab + Fabric.recv_pool_waits fab
      + Fabric.sink_waits fab;
  }

type obs = { res : A.result; host : float; minor : float; cap : capture option }

(* Each row runs on [inputs] inputs: the app's (or the user's) seed and
   seeds derived from it. A row's simulated time is the geometric mean over
   its inputs, which halves the input-to-input variance of the one input
   a row would otherwise rest on (BFS's graph moves its time by +-6 %). *)
let inputs = 2

let input_seed ~user_seed app k =
  Option.value user_seed ~default:app.default_seed + (1_000_003 * k)

(* Run one row on one input. The bare form is the app's own [run] (with no
   seed argument when none was given, so the app's default applies); the
   instrumented form goes through [run_app] with a wrapper that keeps
   [ctx]. Both must simulate exactly the same execution. *)
let run_once ~user_seed ~input ~instrumented r =
  let seed = input_seed ~user_seed r.app input in
  match (instrumented, r.app.body) with
  | true, Some body ->
      let ctx = ref None in
      let res, host, minor =
        M.timed (fun () ->
            A.run_app ~name:r.app.name ~nodes:r.nodes ~variant:r.variant ~seed
              (fun c th ->
                ctx := Some c;
                body c th))
      in
      let cap = Option.map capture !ctx in
      { res; host; minor; cap }
  | _ ->
      let seed = if input = 0 then user_seed else Some seed in
      let res, host, minor =
        M.timed (fun () -> r.app.run ~nodes:r.nodes ~variant:r.variant ?seed ())
      in
      { res; host; minor; cap = None }

let stats_digest l =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l)

let hist_digest h =
  if Histogram.count h = 0 then "n=0"
  else
    Printf.sprintf "n=%d sum=%d p50=%d p99=%d" (Histogram.count h)
      (List.fold_left ( + ) 0 (Histogram.to_list h))
      (Histogram.percentile h 50.0) (Histogram.percentile h 99.0)

(* Simulated outputs common to the bare and instrumented forms. *)
let sim_digest (res : A.result) =
  Printf.sprintf "%s/%s@%d time=%d checksum=%Ld faults=%d retries=%d \
                  coalesced=%d migrations=%d [%s]"
    res.app (A.variant_name res.variant) res.nodes res.sim_time res.checksum
    res.faults res.retries res.coalesced res.migrations
    (stats_digest (Stats.to_list res.stats))

(* Everything a repetition must reproduce exactly: simulated outputs, the
   counters the wrapper reaches and the allocation words. *)
let full_digest o =
  let cap =
    match o.cap with
    | None -> ""
    | Some c ->
        Printf.sprintf " faults{%s} delegations=%d fwd=%d/%d pool_waits=%d fabric[%s]"
          (hist_digest c.fault_lat) c.delegations (List.length c.fwd_ns)
          (List.fold_left ( + ) 0 c.fwd_ns)
          c.pool_waits (stats_digest c.fabric)
  in
  Printf.sprintf "%s%s minor_words=%.0f" (sim_digest o.res) cap o.minor

type result = {
  row : row;
  bare : obs;  (** input 0, bare *)
  instr : obs array;  (** per input, its first instrumented run *)
  hosts : float list;  (** host seconds of every run *)
}

let setup_reps = 3

(* Pass 0 runs every row bare on input 0; pass [p > 0] runs it
   instrumented on input [(p - 1) mod inputs]. *)
let input_of_pass p = if p = 0 then 0 else (p - 1) mod inputs

let run ~spans ~user_seed ~seconds rows =
  let apps =
    List.sort_uniq (fun a b -> compare a.name b.name) (List.map (fun r -> r.app) rows)
  in
  (* Set-up: the host reference answers. The first set-up also fills the
     apps' input caches (BFS's graphs, KMN's points, BT's grids), which the
     rows then share; the later ones measure the references alone. *)
  let setups =
    List.init setup_reps (fun i ->
        Spans.with_span spans ~cat:"setup" (Printf.sprintf "setup %d" (i + 1))
          (fun () ->
            let t0 = M.now () in
            let refs =
              List.concat_map
                (fun app ->
                  List.init inputs (fun k ->
                      ( (app.name, k),
                        Spans.with_span spans ~cat:"apps.reference"
                          (Printf.sprintf "%s reference, input %d" app.name k)
                          (fun () -> app.reference ~seed:(input_seed ~user_seed app k)) )))
                apps
            in
            (refs, M.now () -. t0)))
  in
  let refs = fst (List.hd setups) in
  let refs_digest r =
    String.concat ","
      (List.map (fun ((n, k), c) -> Printf.sprintf "%s/%d=%Ld" n k c) r)
  in
  List.iter
    (fun (r, _) -> M.same ~what:"reference answers" (refs_digest refs) (refs_digest r))
    setups;
  let setup_times = List.map snd setups in
  (* Timed part: passes over the rows until [seconds] have elapsed, and at
     least one bare and one instrumented pass per input. *)
  let rows_a = Array.of_list rows in
  let runs = Array.make (Array.length rows_a) [] in
  let t_start = M.now () in
  let pass = ref 0 in
  let more () = !pass <= inputs || M.now () -. t_start < seconds in
  while more () do
    let input = input_of_pass !pass and instrumented = !pass > 0 in
    Array.iteri
      (fun i r ->
        if more () then begin
          Gc.full_major ();
          let o =
            Spans.with_span spans ~cat:"row" (row_name r) (fun () ->
                Spans.with_span spans
                  ~cat:(if instrumented && r.app.body <> None then "run_app" else "app.run")
                  (Printf.sprintf "%s input %d" (row_name r) input)
                  (fun () -> run_once ~user_seed ~input ~instrumented r))
          in
          runs.(i) <- (!pass, o) :: runs.(i)
        end)
      rows_a;
    incr pass
  done;
  let results =
    Array.to_list
      (Array.mapi
         (fun i r ->
           let what = row_name r in
           let runs = List.rev runs.(i) in
           let of_input k = List.filter (fun (p, _) -> p > 0 && input_of_pass p = k) runs in
           let bare = List.assoc 0 runs in
           let instr = Array.init inputs (fun k -> snd (List.hd (of_input k))) in
           Array.iteri
             (fun k first ->
               M.note_digest (full_digest first);
               List.iter
                 (fun (_, o) ->
                   if k = 0 then M.same ~what (sim_digest bare.res) (sim_digest o.res);
                   M.same ~what (full_digest first) (full_digest o))
                 (of_input k))
             instr;
           List.iter
             (fun (p, o) ->
               let expected = List.assoc (r.app.name, input_of_pass p) refs in
               M.check (o.res.checksum = expected) "%s input %d checksum %Ld, host reference %Ld"
                 what (input_of_pass p) o.res.checksum expected)
             runs;
           { row = r; bare; instr; hosts = List.map (fun (_, o) -> o.host) runs })
         rows_a)
  in
  (* Every distributed row must agree with its app's Baseline row. *)
  List.iter
    (fun res ->
      match
        List.find_opt
          (fun b -> b.row.app == res.row.app && b.row.variant = Baseline)
          results
      with
      | Some b when res.row.variant <> Baseline ->
          Array.iteri
            (fun k o ->
              let base = b.instr.(k).res.checksum in
              M.check (o.res.checksum = base) "%s input %d checksum %Ld, Baseline row %Ld"
                (row_name res.row) k o.res.checksum base)
            res.instr
      | _ -> ())
    results;
  (results, setup_times)

(* Fabric totals from {!Fabric.stats}: messages, bytes and RDMA-path
   messages (each message takes exactly one of the three paths). *)
let fabric_totals l =
  let get k = Option.value ~default:0 (List.assoc_opt k l) in
  let msgs = get "path.rdma" + get "path.verb" + get "path.loopback" in
  let bytes = get "bytes.rdma" + get "bytes.verb" + get "bytes.loopback" in
  (msgs, bytes, get "path.rdma")

let us_of_ns ns = float_of_int ns /. 1e3

let report (results, setup_times) =
  let host r = M.median r.hosts in
  let per_pass x = x /. float_of_int inputs in
  (* A row's simulated time: geometric mean over its inputs. *)
  let sim r =
    M.geomean (Array.to_list (Array.map (fun o -> float_of_int o.res.sim_time) r.instr))
  in
  let is_base r = r.row.variant = A.Baseline in
  let dist = List.filter (fun r -> not (is_base r)) results in
  let base = List.filter is_base results in
  let baseline_of r =
    List.find (fun b -> is_base b && b.row.app == r.row.app) results
  in
  let host_s = M.sum (List.map host results) in
  let e = M.emit M.End_to_end and l = M.emit M.Per_layer in
  e "host_s" "s" host_s;
  e "setup_s" "s" (M.median setup_times);
  e "peak_heap_mb" "MB" (M.peak_heap_mb ());
  e "sim_ms_geomean" "ms" (M.geomean (List.map (fun r -> sim r /. 1e6) results));
  e "speedup_geomean" "x"
    (M.geomean (List.map (fun r -> sim (baseline_of r) /. sim r) dist));
  (* Each distributed row is one job; its sojourn is its simulated run
     time. Nearest-rank over a handful of rows: p99 is the slowest. *)
  let jobs = Histogram.create () in
  List.iter (fun r -> Histogram.add jobs (int_of_float (sim r))) dist;
  e "sojourn_p50_us" "us" (us_of_ns (Histogram.percentile jobs 50.0));
  e "sojourn_p99_us" "us" (us_of_ns (Histogram.percentile jobs 99.0));
  e "goodput_per_ms" "1/ms"
    (float_of_int (List.length results) /. (M.sum (List.map sim results) /. 1e6));
  e "host_us_per_req" "us" (host_s /. float_of_int (List.length results) *. 1e6);
  (* Per layer. Counts add up both inputs; host time and allocation are per
     pass, that is per input. *)
  let instr_runs rs = List.concat_map (fun r -> Array.to_list r.instr) rs in
  l "apps.reference_s" "s" (M.median setup_times);
  l "apps.reference_cold_s" "s" (List.hd setup_times);
  l "apps.baseline_host_s" "s" (M.sum (List.map host base));
  l "apps.baseline_alloc_mwords" "Mwords"
    (per_pass (M.sum (List.map (fun o -> o.minor) (instr_runs base))) /. 1e6);
  let total f rs = List.fold_left (fun acc o -> acc + f o.res) 0 (instr_runs rs) in
  let faults = total (fun r -> r.faults) results
  and retries = total (fun r -> r.retries) results in
  l "coherence.faults" "count" (float_of_int faults);
  l "coherence.retries" "count" (float_of_int retries);
  l "coherence.coalesced" "count" (float_of_int (total (fun r -> r.coalesced) results));
  l "coherence.useful_frac" "ratio"
    (M.ratio (float_of_int faults) (float_of_int (faults + retries)));
  let with_cap = List.filter (fun r -> r.instr.(0).cap <> None) dist in
  let caps = List.filter_map (fun o -> o.cap) (instr_runs with_cap) in
  let lat =
    List.fold_left (fun acc c -> Histogram.merge acc c.fault_lat) (Histogram.create ()) caps
  in
  let pct p = if Histogram.count lat = 0 then 0.0 else us_of_ns (Histogram.percentile lat p) in
  l "coherence.fault_p50_us" "us" (pct 50.0);
  l "coherence.fault_p99_us" "us" (pct 99.0);
  let attempts = float_of_int (total (fun r -> r.faults + r.retries) dist) in
  l "coherence.host_us_per_attempt" "us"
    (M.ratio (M.sum (List.map host dist)) (per_pass attempts) *. 1e6);
  l "coherence.alloc_words_per_attempt" "words"
    (M.ratio (M.sum (List.map (fun o -> o.minor) (instr_runs dist))) attempts);
  let msgs, bytes, rdma =
    List.fold_left
      (fun (m, b, d) c ->
        let m', b', d' = fabric_totals c.fabric in
        (m + m', b + b', d + d'))
      (0, 0, 0) caps
  in
  l "fabric.msgs" "count" (float_of_int msgs);
  l "fabric.bytes" "bytes" (float_of_int bytes);
  l "fabric.rdma_frac" "ratio" (M.ratio (float_of_int rdma) (float_of_int msgs));
  l "fabric.pool_waits" "count"
    (float_of_int (List.fold_left (fun acc c -> acc + c.pool_waits) 0 caps));
  l "fabric.host_ns_per_msg" "ns"
    (M.ratio (M.sum (List.map host with_cap)) (per_pass (float_of_int msgs)) *. 1e9);
  l "process.delegations" "count"
    (float_of_int (List.fold_left (fun acc c -> acc + c.delegations) 0 caps));
  l "process.migrations" "count" (float_of_int (total (fun r -> r.migrations) results));
  (* Share of the rows' thread-time spent handling forward migrations
     (the Table II costs). *)
  l "process.migration_fwd_frac" "ratio"
    (M.ratio
       (float_of_int (List.fold_left (fun acc c -> acc + List.fold_left ( + ) 0 c.fwd_ns) 0 caps))
       (float_of_int (total (fun r -> r.sim_time * r.threads) with_cap)));
  l "trace.host_s" "s" host_s;
  Printf.printf "  set-up s: %s\n" (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
  (* The rows, for a reader of the log. *)
  List.iter
    (fun r ->
      Printf.printf "  %-18s host %.3f s (median of %d)\n" (row_name r.row) (host r)
        (List.length r.hosts);
      Array.iteri
        (fun k o ->
          Printf.printf "    input %d: sim %9.3f ms  faults %6d  retries %6d  checksum %Ld\n" k
            (float_of_int o.res.sim_time /. 1e6) o.res.faults o.res.retries o.res.checksum)
        r.instr)
    results
