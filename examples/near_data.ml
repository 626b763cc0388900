(* Scheduling extensions: computation-to-data affinity and offloading.

   The paper's conclusion sketches three uses of DeX's relocation
   capability; this example demonstrates two. A dataset is produced on
   node 2; a worker thread then asks the affinity scheduler where the data
   lives and migrates itself there before processing it — turning every
   would-be remote fault into a local hit. Finally a hot computation is
   offloaded to the least-loaded node and comes back with the result,
   reading its input through the delegated file API.

   Run with: dune exec examples/near_data.exe *)

open Dex_core
open Dex_sched

let () =
  let cl = Dex.cluster ~nodes:4 () in
  ignore
    (Dex.run cl (fun proc main ->
         let coh = Process.coherence proc in
         let data = Process.memalign main ~align:4096 ~bytes:(64 * 4096)
             ~tag:"dataset" in
         (* Produce the dataset on node 2. *)
         let producer =
           Process.spawn proc (fun th ->
               Process.migrate th 2;
               Process.write_range th ~site:"produce" data ~len:(64 * 4096))
         in
         Process.join producer;
         let ranges = [ (data, 64 * 4096) ] in
         let counts = Affinity.owned_pages coh ~ranges in
         Format.printf "pages per node after production: %s@."
           (String.concat " "
              (Array.to_list (Array.map string_of_int counts)));
         (* A consumer follows the data instead of pulling it. *)
         let consumer =
           Process.spawn proc (fun th ->
               let t0 = Dex_sim.Engine.now (Cluster.engine cl) in
               let node = Affinity.migrate_to_data th ~ranges in
               Process.read_range th ~site:"consume" data ~len:(64 * 4096);
               Format.printf
                 "consumer migrated to node %d and scanned locally in %a@."
                 node Dex_sim.Time_ns.pp
                 (Dex_sim.Engine.now (Cluster.engine cl) - t0))
         in
         Process.join consumer;
         (* Offload a computation to whichever node is idle. *)
         let fd = Process.file_open main "weights.bin" in
         Process.file_write main ~fd ~bytes:65536;
         Process.file_close main ~fd;
         let worker =
           Process.spawn proc (fun th ->
               let result, node =
                 Offload.run_on_least_loaded th (fun () ->
                     let fd = Process.file_open th "weights.bin" in
                     let got = Process.file_read th ~fd ~bytes:65536 in
                     Process.file_close th ~fd;
                     Process.compute th ~ns:(Dex_sim.Time_ns.us 250);
                     got)
               in
               Format.printf
                 "offloaded computation ran on node %d over %d bytes of \
                  delegated file input@."
                 node result)
         in
         Process.join worker));
  Format.printf "total simulated time: %a@.@." Dex_sim.Time_ns.pp
    (Dex.elapsed cl);
  (* Third conclusion scenario: energy over heterogeneous power profiles
     (two Xeons, two efficiency nodes). *)
  let profiles =
    [|
      Energy.xeon_profile; Energy.xeon_profile; Energy.efficiency_profile;
      Energy.efficiency_profile;
    |]
  in
  Energy.pp_report ~profiles Format.std_formatter cl;
  Format.printf "run energy: %.4f J; an energy-aware scheduler would place \
                 the next thread on node %d@."
    (Energy.joules cl ~profiles)
    (Energy.cheapest_node cl ~profiles)
