(* Memory pressure: "running a large compile job concurrently with an X
   server on a system with a small amount of physical memory" (paper §8).
   A big anonymous working set forces paging; the interactive process keeps
   touching its own few pages.  Compare how long the interactive work takes
   while each VM system is busy paging — UVM's clustered pageout keeps the
   system responsive.

   Run with: dune exec examples/memory_pressure.exe

   The same job can run on failing hardware.  Options:

     --read-error-rate R    each disk read fails with probability R
     --write-error-rate R   each disk write fails with probability R
     --permanent            rate errors are bad media, not transient
     --bad-slot N           swap slot N is bad media (repeatable)
     --fault-seed S         seed for the fault plan's RNG

   e.g. dune exec examples/memory_pressure.exe -- --write-error-rate 0.02 \
          --bad-slot 1 --bad-slot 7
   Both systems ride out the faults (retry/backoff for transients,
   blacklist-and-reassign for bad media); the resilience counters show the
   recovery work each one did. *)

open Vmiface.Vmtypes

(* Minimal argv parsing: the example stays dependency-free. *)
let fault_config () =
  let read_rate = ref 0.0 in
  let write_rate = ref 0.0 in
  let permanent = ref false in
  let bad_slots = ref [] in
  let seed = ref 0xFA17 in
  let rec parse = function
    | [] -> ()
    | "--read-error-rate" :: v :: rest ->
        read_rate := float_of_string v;
        parse rest
    | "--write-error-rate" :: v :: rest ->
        write_rate := float_of_string v;
        parse rest
    | "--permanent" :: rest ->
        permanent := true;
        parse rest
    | "--bad-slot" :: v :: rest ->
        bad_slots := int_of_string v :: !bad_slots;
        parse rest
    | "--fault-seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown option %s\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !read_rate < 0.0 || !read_rate > 1.0 || !write_rate < 0.0 || !write_rate > 1.0
  then begin
    Printf.eprintf "error rates must be in [0,1]\n";
    exit 2
  end;
  let faulty =
    !read_rate > 0.0 || !write_rate > 0.0 || !bad_slots <> []
  in
  if not faulty then None
  else
    (* A fresh, identically-seeded plan per boot, so UVM and BSD VM face
       the same storms. *)
    Some
      (fun () ->
        let plan =
          Sim.Fault_plan.create ~seed:!seed ~read_error_rate:!read_rate
            ~write_error_rate:!write_rate
            ~rate_severity:
              (if !permanent then Sim.Fault_plan.Permanent
               else Sim.Fault_plan.Transient)
            ()
        in
        List.iter
          (fun slot ->
            Sim.Fault_plan.fail_op plan ~slot Sim.Fault_plan.Write
              Sim.Fault_plan.Permanent)
          !bad_slots;
        plan)

let fault_plan = fault_config ()

module Run (V : Vmiface.Vm_sig.VM_SYS) = struct
  let go () =
    let config =
      { (Vmiface.Machine.config_mb ~ram_mb:16 ~swap_mb:128 ()) with fault_plan }
    in
    let sys = V.boot ~config () in
    let mach = V.machine sys in
    let clock = mach.Vmiface.Machine.clock in

    (* The interactive process: an "editor" with a small working set. *)
    let editor = V.new_vmspace sys in
    let ed = V.mmap sys editor ~npages:16 ~prot:Pmap.Prot.rw ~share:Private Zero in
    V.access_range sys editor ~vpn:ed ~npages:16 Write;

    (* The compile job: allocates far more than RAM. *)
    let compiler = V.new_vmspace sys in
    let npages = 8192 (* 32 MB on a 16 MB machine *) in
    let work = V.mmap sys compiler ~npages ~prot:Pmap.Prot.rw ~share:Private Zero in

    let editor_time = ref 0.0 in
    let editor_ticks = ref 0 in
    let t_start = Sim.Simclock.now clock in
    for i = 0 to npages - 1 do
      V.write_bytes sys compiler ~addr:((work + i) * 4096)
        (Bytes.of_string (Printf.sprintf "obj%05d" i));
      (* Every 64 compiler pages, the user types a character. *)
      if i mod 64 = 0 then begin
        let t0 = Sim.Simclock.now clock in
        V.touch sys editor ~vpn:(ed + (i / 64 mod 16)) Write;
        editor_time := !editor_time +. (Sim.Simclock.now clock -. t0);
        incr editor_ticks
      end
    done;
    let total = Sim.Simclock.now clock -. t_start in
    let st = mach.Vmiface.Machine.stats in
    Printf.printf
      "%-8s compile: %7.2f s | editor keystroke avg: %8.1f us | pageouts=%d in %d I/Os\n"
      V.name (total /. 1e6)
      (!editor_time /. float_of_int !editor_ticks)
      Sim.Stats.(get st pageouts) Sim.Stats.(get st disk_write_ops);
    if fault_plan <> None then
      Printf.printf
        "         faults injected: %d | retries: %d | pageouts recovered: %d | \
         slots blacklisted: %d | pageins failed: %d | swap-full events: %d\n"
        Sim.Stats.(get st io_errors_injected) Sim.Stats.(get st pageout_retries)
        Sim.Stats.(get st pageouts_recovered) Sim.Stats.(get st bad_slots)
        Sim.Stats.(get st pageins_failed) Sim.Stats.(get st swap_full_events)
end

module U = Run (Uvm.Sys)
module B = Run (Bsdvm.Sys)

let () =
  Printf.printf "32 MB compile job on a 16 MB machine, with an editor in use:\n\n";
  U.go ();
  B.go ();
  Printf.printf
    "\nUVM reassigns swap locations and pages out in clusters; BSD VM issues\n\
     one I/O per page, so the same job takes several times longer (paper\n\
     Figure 5 / section 8).\n"
