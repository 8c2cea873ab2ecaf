(* A fixed calibration loop, independent of the program under test: random
   read-modify-writes over a 2 MB array, short-lived allocation through a
   hash table and 4 KB block copies, the mix of cache misses, allocation
   and copying the simulator's hot paths make.  Its running time tracks how
   fast the host is running this process at the moment, which on a shared
   machine drifts by tens of percent from minute to minute.

   Host figures are reported in reference-host seconds: a measured time is
   divided by [factor (run ())], taken next to the measurement. *)

let words = 1 lsl 18
let mem = lazy (Array.make words 0)
let iterations = 150_000

(* The loop's time on an idle core of the host the benchmark was defined
   on (a 2-vCPU Intel Xeon virtual machine). *)
let reference_ms = 15.0

(* The simulator slows down less than the loop does: over about 450
   repetitions of [fork-cow] and [paging] on the reference host, log raw
   throughput fell by 0.70-0.71 per unit rise in log [calib_ms]
   (correlation about -0.9, both kernels, both workloads), so the loop's
   slowdown is taken to this power. *)
let exponent = 0.7

(* How much slower than the reference host the process runs now, from a
   loop time [ms]. *)
let factor ms = (ms /. reference_ms) ** exponent

(* Milliseconds one pass takes now. *)
let run () =
  let a = Lazy.force mem in
  let mask = words - 1 in
  let src = Bytes.create 4096 and dst = Bytes.create 4096 in
  let h = Hashtbl.create 4096 in
  let t = Probe.now_ns () in
  let acc = ref 0 and j = ref 12345 in
  for i = 1 to iterations do
    j := ((!j * 1103515245) + 12345) land mask;
    acc := !acc + a.(!j);
    a.(!j) <- i;
    Hashtbl.replace h (i land 4095) [ i; !acc ];
    if i land 31 = 0 then Bytes.blit src 0 dst 0 4096
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (Probe.now_ns () - t) /. 1e6
