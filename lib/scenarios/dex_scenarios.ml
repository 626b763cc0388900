open Dex_core
module Net_config = Dex_net.Net_config
module Time_ns = Dex_sim.Time_ns

let reliable_chaos ~seed =
  {
    Net_config.chaos_default with
    Net_config.chaos_seed = seed;
    rto = Time_ns.us 20;
    rto_cap = Time_ns.us 100;
    max_retransmits = 4;
  }

let with_chaos ~nodes chaos =
  { (Net_config.default ~nodes ()) with Net_config.chaos = Some chaos }

let reliable_net ~seed ~nodes = with_chaos ~nodes (reliable_chaos ~seed)

let crash_net ~nodes crashes =
  with_chaos ~nodes
    {
      Net_config.chaos_default with
      Net_config.chaos_seed = 23;
      rto = Time_ns.us 100;
      rto_cap = Time_ns.us 500;
      max_retransmits = 8;
      crashes;
    }

type failover = {
  cluster : Cluster.t;
  proc : Process.t;
  final : int64;
  expect : int;
}

let failover ~nodes ~replication ~standbys ~rounds ?crash_at
    ?(double_crash = false) () =
  let proto =
    {
      Dex_proto.Proto_config.default with
      Dex_proto.Proto_config.replication;
      standbys = `Lowest standbys;
      on_crash = `Rehome;
    }
  in
  let cluster =
    Dex.cluster ~nodes ~net:(reliable_net ~seed:11 ~nodes) ~proto ()
  in
  let writers = nodes - 1 in
  let final = ref (-1L) in
  let proc =
    Dex.run cluster (fun proc main ->
        let counter =
          Process.memalign main ~align:4096 ~bytes:8 ~tag:"counter"
        in
        Process.store main counter 0L;
        let threads =
          List.init writers (fun i ->
              Process.spawn proc ~name:(Printf.sprintf "w%d" (i + 1)) (fun th ->
                  (* With a double crash, keep writers off the doomed
                     standby: increments parked on a crashed worker node
                     die with it (fail-stop), which is node-local state
                     loss, not a replication gap. *)
                  let home =
                    if double_crash then 2 + (i mod (nodes - 2)) else i + 1
                  in
                  Process.migrate th home;
                  for _ = 1 to rounds do
                    ignore (Process.fetch_add th counter 1L);
                    Process.compute th ~ns:(Time_ns.us 30)
                  done))
        in
        (* Anything left on the origin dies with it. *)
        Process.migrate main (if nodes > 2 then 2 else 1);
        Option.iter
          (fun t ->
            Process.compute main ~ns:t;
            Cluster.crash_node cluster ~node:0;
            if double_crash then Cluster.crash_node cluster ~node:1)
          crash_at;
        List.iter Process.join threads;
        final := Process.load main counter)
  in
  { cluster; proc; final = !final; expect = writers * rounds }

let audit_reclaim proc ~dead =
  let coh = Process.coherence proc in
  Dex_proto.Coherence.check_invariants coh;
  let ghosts = ref 0 in
  for shard = 0 to Dex_proto.Coherence.shard_count coh - 1 do
    Dex_mem.Directory.iter
      (Dex_proto.Coherence.shard_directory coh ~shard)
      (fun _ st ->
        match st with
        | Dex_mem.Directory.Exclusive n when n = dead -> incr ghosts
        | Dex_mem.Directory.Shared set when Dex_mem.Node_set.mem set dead ->
            incr ghosts
        | _ -> ())
  done;
  !ghosts

let pp_recovery fmt proc =
  let get = Dex_sim.Stats.get (Process.stats proc) in
  Format.fprintf fmt
    "recovery: threads_aborted=%d threads_rehomed=%d futex_cancelled=%d \
     migrations_refused=%d@."
    (get "crash.threads_aborted")
    (get "crash.threads_rehomed")
    (get "crash.futex_cancelled")
    (get "crash.migrations_refused")
