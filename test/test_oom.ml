(* The overload lifeboat: OOM victim selection, audit-clean reaps,
   the kernel reserve pool, whole-process swapout, and the IPC
   backpressure a parked or reaped receiver exerts on its senders.

   Every test is a functor over VM_SYS and runs against both kernels:
   the policy lives above the VM interface, so the two systems must
   escalate through the same ladder and pick the same victims. *)

module Vt = Vmiface.Vmtypes
module Machine = Vmiface.Machine
module Overload = Oslayer.Overload
module P = Oslayer.Programs

module Oom (V : Vmiface.Vm_sig.VM_SYS) = struct
  module Ps = Oslayer.Procsim.Make (V)

  let boot ?(ram = 192) ?(swap = 256) () =
    let config =
      { Machine.default_config with Machine.ram_pages = ram; swap_pages = swap }
    in
    let sys = V.boot ~config () in
    (sys, V.machine sys)

  let spawn_touched sys mgr ~pages =
    let proc = Ps.spawn sys P.cat in
    Ps.register mgr proc;
    if pages > 0 then begin
      let vpn =
        V.mmap sys proc.Ps.vm ~npages:pages ~prot:Pmap.Prot.rw
          ~share:Vt.Private Vt.Zero
      in
      V.access_range sys proc.Ps.vm ~vpn ~npages:pages Vt.Write
    end;
    proc

  (* Drive a registered "current" process into sustained shortage until
     the policy has reaped at least [until_kills] victims (or the
     current process itself dies).  Returns true if the current process
     was killed. *)
  let squeeze sys mgr consumer ~vpn ~npages ~until_kills ~kills =
    let killed = ref false in
    let rounds = ref 0 in
    while
      (not !killed) && List.length !kills < until_kills && !rounds < 12
    do
      incr rounds;
      try
        Ps.run_as mgr consumer (fun () ->
            V.access_range sys consumer.Ps.vm ~vpn ~npages Vt.Write)
      with
      | Overload.Killed _ -> killed := true
      | Physmem.Out_of_pages | Vt.Segv { error = Vt.Out_of_memory; _ } -> ()
    done;
    !killed

  (* Stage 1 parks idle processes; stage 2 must then reap the process
     whose badness score is highest — the big touched footprint, not the
     young small ones — identically under both kernels. *)
  let test_victim_determinism () =
    (* Swap smaller than the combined anonymous demand: paging alone
       cannot meet it, so the ladder has to escalate all the way. *)
    let sys, mach = boot ~swap:96 () in
    let st = mach.Machine.stats in
    let mgr = Ps.new_mgr sys in
    Ps.install mgr;
    let kills = ref [] in
    Ps.set_on_kill mgr (fun proc ~badness ->
        Alcotest.(check bool) "badness non-negative" true (badness >= 0);
        kills := proc.Ps.pid :: !kills);
    let hog = spawn_touched sys mgr ~pages:96 in
    let small1 = spawn_touched sys mgr ~pages:8 in
    let small2 = spawn_touched sys mgr ~pages:8 in
    let consumer = Ps.spawn sys P.cat in
    Ps.register mgr consumer;
    let npages = 256 in
    let vpn =
      V.mmap sys consumer.Ps.vm ~npages ~prot:Pmap.Prot.rw ~share:Vt.Private
        Vt.Zero
    in
    ignore (squeeze sys mgr consumer ~vpn ~npages ~until_kills:1 ~kills : bool);
    (match List.rev !kills with
    | first :: _ ->
        Alcotest.(check int) "worst-badness victim reaped first" hog.Ps.pid
          first
    | [] -> Alcotest.fail "pressure never forced a reap");
    Alcotest.(check bool) "swapout rung ran before the reap" true
      (Sim.Stats.(get st proc_swapouts) >= 1);
    Alcotest.(check bool) "small processes outlived the hog" true
      ((not small1.Ps.dead) || not small2.Ps.dead);
    Ps.uninstall mgr

  (* Reaps happen from inside a failing fault's allocation; the teardown
     must go through the ordinary exit machinery so every kernel
     invariant the auditor walks still holds afterwards. *)
  let test_reap_keeps_audit_clean () =
    let sys, mach = boot ~swap:96 () in
    let st = mach.Machine.stats in
    let mgr = Ps.new_mgr sys in
    Ps.install mgr;
    let kills = ref [] in
    Ps.set_on_kill mgr (fun proc ~badness:_ ->
        kills := proc.Ps.pid :: !kills;
        (* Mid-fault: the victim is gone before the faulting allocation
           retries, and the machine must already be consistent. *)
        V.audit sys);
    ignore (spawn_touched sys mgr ~pages:48 : Ps.proc);
    ignore (spawn_touched sys mgr ~pages:48 : Ps.proc);
    let consumer = Ps.spawn sys P.cat in
    Ps.register mgr consumer;
    let npages = 256 in
    let vpn =
      V.mmap sys consumer.Ps.vm ~npages ~prot:Pmap.Prot.rw ~share:Vt.Private
        Vt.Zero
    in
    ignore (squeeze sys mgr consumer ~vpn ~npages ~until_kills:2 ~kills : bool);
    Alcotest.(check bool) "at least one victim reaped" true
      (Sim.Stats.(get st oom_kills) >= 1);
    V.audit sys;
    (* Everything left tears down cleanly too. *)
    List.iter
      (fun p -> if not p.Ps.dead then Ps.exit_proc sys p)
      (Ps.live mgr);
    V.audit sys;
    Alcotest.(check int) "no leaked anon memory" 0 (V.leaked_pages sys);
    Ps.uninstall mgr

  (* With ordinary allocations refused at the floor, a privileged
     (pagedaemon-style) allocation must still succeed out of the kernel
     reserve — that is what keeps pageout I/O alive during the shortage
     that needs it most. *)
  let test_reserve_keeps_daemon_alive () =
    let sys, mach = boot ~ram:96 ~swap:48 () in
    let st = mach.Machine.stats in
    let pm = mach.Machine.physmem in
    let vm = V.new_vmspace sys in
    let npages = 192 in
    let vpn =
      V.mmap sys vm ~npages ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero
    in
    (try
       for _ = 1 to 4 do
         V.access_range sys vm ~vpn ~npages Vt.Write
       done;
       Alcotest.fail "expected Out_of_pages with no overload manager"
     with
    | Physmem.Out_of_pages | Vt.Segv { error = Vt.Out_of_memory; _ } -> ());
    let free = Physmem.free_count pm in
    let reserve = Physmem.reserve pm in
    Alcotest.(check bool) "ordinary allocs stopped at the floor" true
      (free <= reserve);
    Alcotest.(check bool) "the floor is not empty" true (free > 0);
    let before = Sim.Stats.(get st reserve_grabs) in
    let page =
      Physmem.alloc pm ~privileged:true ~owner:Physmem.Page.No_owner ~offset:0
        ()
    in
    Alcotest.(check bool) "privileged alloc dug into the reserve" true
      (Sim.Stats.(get st reserve_grabs) > before);
    Physmem.free_page pm page

  (* Whole-process swapout parks the process and releases its memory to
     the pagedaemon; the first syscall after swapin must see every byte
     it wrote before, with both transitions counted. *)
  let test_swapout_round_trip () =
    let sys, mach = boot ~ram:192 ~swap:512 () in
    let st = mach.Machine.stats in
    let ps = Machine.page_size mach in
    let mgr = Ps.new_mgr sys in
    let parked = Ps.spawn sys P.cat in
    Ps.register mgr parked;
    let npages = 16 in
    let vpn =
      V.mmap sys parked.Ps.vm ~npages ~prot:Pmap.Prot.rw ~share:Vt.Private
        Vt.Zero
    in
    let tag i = Printf.sprintf "page-%02d-tag" i in
    for i = 0 to npages - 1 do
      V.write_bytes sys parked.Ps.vm
        ~addr:((vpn + i) * ps)
        (Bytes.of_string (tag i))
    done;
    let so0 = Sim.Stats.(get st proc_swapouts)
    and si0 = Sim.Stats.(get st proc_swapins) in
    let evicted = Ps.swapout_whole mgr parked in
    Alcotest.(check bool) "resident set evicted" true (evicted >= npages);
    Alcotest.(check bool) "marked swapped" true parked.Ps.swapped;
    Alcotest.(check int) "swapout counted" (so0 + 1)
      Sim.Stats.(get st proc_swapouts);
    (* Pressure from another space pushes the parked pages all the way
       out to swap before the victim runs again. *)
    let other = V.new_vmspace sys in
    let ovpn =
      V.mmap sys other ~npages:256 ~prot:Pmap.Prot.rw ~share:Vt.Private
        Vt.Zero
    in
    V.access_range sys other ~vpn:ovpn ~npages:256 Vt.Write;
    (* First syscall: run_as swaps the process back in, faults page the
       working set back, and the contents must have survived the trip. *)
    Ps.run_as mgr parked (fun () ->
        for i = 0 to npages - 1 do
          let got =
            V.read_bytes sys parked.Ps.vm
              ~addr:((vpn + i) * ps)
              ~len:(String.length (tag i))
          in
          Alcotest.(check string)
            (Printf.sprintf "page %d contents survived" i)
            (tag i) (Bytes.to_string got)
        done);
    Alcotest.(check bool) "back in core" true (not parked.Ps.swapped);
    Alcotest.(check int) "swapin counted" (si0 + 1)
      Sim.Stats.(get st proc_swapins);
    V.audit sys

  (* Senders see the receiver's state as typed backpressure: a parked
     receiver with a full queue times the send out, a reaped receiver
     fails it immediately — no exception, no lost kernel state. *)
  let test_ipc_backpressure () =
    let sys, mach = boot () in
    let st = mach.Machine.stats in
    let ps = Machine.page_size mach in
    let mgr = Ps.new_mgr sys in
    let sender = Ps.spawn sys P.cat in
    let receiver = Ps.spawn sys P.cat in
    Ps.register mgr sender;
    Ps.register mgr receiver;
    let ch = Ps.pipe_owned mgr ~owner:receiver ~cap_bytes:ps () in
    let addr = sender.Ps.heap.Ps.seg_vpn * ps in
    V.write_bytes sys sender.Ps.vm ~addr (Bytes.make ps 'm');
    let send len =
      Ps.send_r mgr sender ch ~policy:Ipc.Copy ~addr ~len
    in
    (match send (ps / 2) with
    | Ok n -> Alcotest.(check int) "live receiver accepts" (ps / 2) n
    | Error _ -> Alcotest.fail "send to live receiver failed");
    (* Park the receiver: sends still land while there is capacity... *)
    ignore (Ps.swapout_whole mgr receiver : int);
    (match send (ps / 2) with
    | Ok n -> Alcotest.(check int) "capacity still drains" (ps / 2) n
    | Error _ -> Alcotest.fail "send under capacity must not time out");
    (* ...but a full queue cannot drain before the deadline. *)
    (match send (ps / 2) with
    | Error Ipc.Timed_out -> ()
    | Ok _ -> Alcotest.fail "expected Timed_out on full queue"
    | Error Ipc.Peer_dead -> Alcotest.fail "receiver is parked, not dead");
    (* Reap the receiver: every later send fails fast and is typed. *)
    let k0 = Sim.Stats.(get st oom_kills) in
    Ps.reap mgr receiver;
    Alcotest.(check int) "reap counted" (k0 + 1) Sim.Stats.(get st oom_kills);
    (match send (ps / 2) with
    | Error Ipc.Peer_dead -> ()
    | Ok _ | Error Ipc.Timed_out ->
        Alcotest.fail "expected Peer_dead after the reap");
    V.audit sys

  let tests =
    [
      Alcotest.test_case "victim determinism" `Quick test_victim_determinism;
      Alcotest.test_case "reap keeps audit clean" `Quick
        test_reap_keeps_audit_clean;
      Alcotest.test_case "reserve keeps daemon alive" `Quick
        test_reserve_keeps_daemon_alive;
      Alcotest.test_case "swapout round trip" `Quick test_swapout_round_trip;
      Alcotest.test_case "ipc backpressure" `Quick test_ipc_backpressure;
    ]
end

module Oom_uvm = Oom (Uvm.Sys)
module Oom_bsd = Oom (Bsdvm.Sys)

let () =
  Alcotest.run "oom"
    [ ("uvm", Oom_uvm.tests); ("bsd", Oom_bsd.tests) ]
