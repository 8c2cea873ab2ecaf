(* The pmap layer: translations, protections, pv (reverse) mappings. *)

let mk () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let pm =
    Physmem.create ~page_size:256 ~npages:32 ~clock ~costs:Sim.Cost_model.zero
      ~stats ()
  in
  let ctx = Pmap.create_ctx ~clock ~costs:Sim.Cost_model.zero ~stats () in
  (pm, ctx)

let page pm = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 ()

let test_prot_algebra () =
  Alcotest.(check bool) "rw subsumes r" true
    (Pmap.Prot.subsumes Pmap.Prot.rw Pmap.Prot.read);
  Alcotest.(check bool) "r does not subsume rw" false
    (Pmap.Prot.subsumes Pmap.Prot.read Pmap.Prot.rw);
  Alcotest.(check bool) "none subsumes none" true
    (Pmap.Prot.subsumes Pmap.Prot.none Pmap.Prot.none);
  Alcotest.(check string) "to_string" "rw-" (Pmap.Prot.to_string Pmap.Prot.rw);
  Alcotest.(check bool) "remove_write" true
    (Pmap.Prot.equal (Pmap.Prot.remove_write Pmap.Prot.rwx) Pmap.Prot.rx);
  Alcotest.(check bool) "intersect" true
    (Pmap.Prot.equal (Pmap.Prot.intersect Pmap.Prot.rw Pmap.Prot.rx) Pmap.Prot.read)

let test_enter_lookup_remove () =
  let pm, ctx = mk () in
  let map = Pmap.create ctx in
  let p = page pm in
  Pmap.enter map ~vpn:100 ~page:p ~prot:Pmap.Prot.rw ~wired:false;
  (match Pmap.lookup map ~vpn:100 with
  | Some pte ->
      Alcotest.(check bool) "same page" true (pte.Pmap.page == p);
      Alcotest.(check bool) "prot" true (Pmap.Prot.equal pte.Pmap.prot Pmap.Prot.rw)
  | None -> Alcotest.fail "no translation");
  Alcotest.(check int) "resident" 1 (Pmap.resident_count map);
  Pmap.remove_one map ~vpn:100;
  Alcotest.(check bool) "gone" true (Pmap.lookup map ~vpn:100 = None);
  Alcotest.(check (list pass)) "pv empty" []
    (List.map (fun _ -> ()) (Pmap.mappings_of_page ctx p))

let test_replace_translation () =
  let pm, ctx = mk () in
  let map = Pmap.create ctx in
  let p1 = page pm and p2 = page pm in
  Pmap.enter map ~vpn:5 ~page:p1 ~prot:Pmap.Prot.read ~wired:false;
  Pmap.enter map ~vpn:5 ~page:p2 ~prot:Pmap.Prot.rw ~wired:false;
  (match Pmap.lookup map ~vpn:5 with
  | Some pte -> Alcotest.(check bool) "replaced" true (pte.Pmap.page == p2)
  | None -> Alcotest.fail "missing");
  Alcotest.(check int) "old pv gone" 0 (List.length (Pmap.mappings_of_page ctx p1));
  Alcotest.(check int) "new pv present" 1 (List.length (Pmap.mappings_of_page ctx p2))

let test_range_ops () =
  let pm, ctx = mk () in
  let map = Pmap.create ctx in
  for v = 10 to 19 do
    Pmap.enter map ~vpn:v ~page:(page pm) ~prot:Pmap.Prot.rw ~wired:false
  done;
  Pmap.protect_range map ~lo:12 ~hi:15 ~prot:Pmap.Prot.read;
  (match Pmap.lookup map ~vpn:13 with
  | Some pte -> Alcotest.(check bool) "downgraded" true (Pmap.Prot.equal pte.Pmap.prot Pmap.Prot.read)
  | None -> Alcotest.fail "missing");
  (match Pmap.lookup map ~vpn:16 with
  | Some pte -> Alcotest.(check bool) "untouched" true (Pmap.Prot.equal pte.Pmap.prot Pmap.Prot.rw)
  | None -> Alcotest.fail "missing");
  Pmap.remove_range map ~lo:10 ~hi:15;
  Alcotest.(check int) "half removed" 5 (Pmap.resident_count map);
  Pmap.restrict_range map ~lo:15 ~hi:20 ~prot:Pmap.Prot.rx;
  (match Pmap.lookup map ~vpn:17 with
  | Some pte ->
      Alcotest.(check bool) "restricted to r-x intersect rw- = r--" true
        (Pmap.Prot.equal pte.Pmap.prot Pmap.Prot.read)
  | None -> Alcotest.fail "missing")

let test_page_wide_ops () =
  let pm, ctx = mk () in
  let m1 = Pmap.create ctx and m2 = Pmap.create ctx in
  let p = page pm in
  Pmap.enter m1 ~vpn:1 ~page:p ~prot:Pmap.Prot.rw ~wired:false;
  Pmap.enter m2 ~vpn:9 ~page:p ~prot:Pmap.Prot.rw ~wired:false;
  Alcotest.(check int) "pv has both" 2 (List.length (Pmap.mappings_of_page ctx p));
  Pmap.page_protect_all ctx p ~prot:(Pmap.Prot.remove_write Pmap.Prot.rwx);
  let check_ro m vpn =
    match Pmap.lookup m ~vpn with
    | Some pte -> Alcotest.(check bool) "write revoked" false pte.Pmap.prot.Pmap.Prot.w
    | None -> Alcotest.fail "missing"
  in
  check_ro m1 1;
  check_ro m2 9;
  Pmap.page_remove_all ctx p;
  Alcotest.(check bool) "all gone" true
    (Pmap.lookup m1 ~vpn:1 = None && Pmap.lookup m2 ~vpn:9 = None)

let test_mark_access () =
  let pm, ctx = mk () in
  let map = Pmap.create ctx in
  let p = page pm in
  Pmap.enter map ~vpn:4 ~page:p ~prot:Pmap.Prot.rw ~wired:false;
  Alcotest.(check bool) "initially unreferenced" false (Pmap.is_referenced p);
  Pmap.mark_access map ~vpn:4 ~write:false;
  Alcotest.(check bool) "referenced" true (Pmap.is_referenced p);
  Alcotest.(check bool) "clean" false p.Physmem.Page.dirty;
  Pmap.mark_access map ~vpn:4 ~write:true;
  Alcotest.(check bool) "dirty" true p.Physmem.Page.dirty;
  Pmap.clear_reference ctx p;
  Alcotest.(check bool) "cleared" false (Pmap.is_referenced p)

let test_destroy () =
  let pm, ctx = mk () in
  let map = Pmap.create ctx in
  let pages = List.init 5 (fun i ->
      let p = page pm in
      Pmap.enter map ~vpn:i ~page:p ~prot:Pmap.Prot.rw ~wired:false;
      p)
  in
  Pmap.destroy map;
  Alcotest.(check int) "nothing resident" 0 (Pmap.resident_count map);
  List.iter
    (fun p ->
      Alcotest.(check int) "pv cleaned" 0
        (List.length (Pmap.mappings_of_page ctx p)))
    pages

(* Property: pv lists always agree with the pmap tables. *)
let prop_pv_consistent =
  QCheck.Test.make ~name:"pv lists consistent" ~count:100
    QCheck.(list (pair (int_range 0 2) (int_range 0 7)))
    (fun ops ->
      let pm, ctx = mk () in
      let map = Pmap.create ctx in
      let pages = Array.init 8 (fun _ -> page pm) in
      List.iter
        (fun (op, i) ->
          match op with
          | 0 -> Pmap.enter map ~vpn:i ~page:pages.(i) ~prot:Pmap.Prot.rw ~wired:false
          | 1 -> Pmap.remove_one map ~vpn:i
          | _ -> Pmap.page_remove_all ctx pages.(i))
        ops;
      Array.for_all
        (fun p ->
          List.for_all
            (fun (m, vpn) ->
              match Pmap.lookup m ~vpn with
              | Some pte -> pte.Pmap.page == p
              | None -> false)
            (Pmap.mappings_of_page ctx p))
        pages
      && Pmap.resident_count map
         = (Array.to_list pages
           |> List.concat_map (fun p -> Pmap.mappings_of_page ctx p)
           |> List.length))

(* Differential model: the pmap against a plain map per address space and
   a pv list per frame, over vpns straddling the 512-slot leaf boundaries.
   Costs are distinct whole microseconds, so the expected clock is exact. *)
module Vmap = Map.Make (Int)

type op =
  | Enter of int * int * int * Pmap.Prot.t * bool
  | Enter_same of int * int * Pmap.Prot.t * bool
  | Remove_one of int * int
  | Remove_range of int * int * int
  | Protect_range of int * int * int * Pmap.Prot.t
  | Restrict_range of int * int * int * Pmap.Prot.t
  | Page_remove_all of int
  | Page_remove_unwired of int
  | Page_protect_all of int * Pmap.Prot.t
  | Destroy of int

let show_op =
  let p = Pmap.Prot.to_string in
  function
  | Enter (m, v, f, pr, w) -> Printf.sprintf "enter m%d %d f%d %s %b" m v f (p pr) w
  | Enter_same (m, v, pr, w) -> Printf.sprintf "enter_same m%d %d %s %b" m v (p pr) w
  | Remove_one (m, v) -> Printf.sprintf "remove_one m%d %d" m v
  | Remove_range (m, lo, hi) -> Printf.sprintf "remove_range m%d [%d,%d)" m lo hi
  | Protect_range (m, lo, hi, pr) ->
      Printf.sprintf "protect_range m%d [%d,%d) %s" m lo hi (p pr)
  | Restrict_range (m, lo, hi, pr) ->
      Printf.sprintf "restrict_range m%d [%d,%d) %s" m lo hi (p pr)
  | Page_remove_all f -> Printf.sprintf "page_remove_all f%d" f
  | Page_remove_unwired f -> Printf.sprintf "page_remove_unwired f%d" f
  | Page_protect_all (f, pr) -> Printf.sprintf "page_protect_all f%d %s" f (p pr)
  | Destroy m -> Printf.sprintf "destroy m%d" m

let gen_op =
  let open QCheck.Gen in
  let vpn = oneof [ int_range 0 1100; oneofl [ 0; 511; 512; 1023; 1024; 1100 ] ] in
  let range =
    oneof
      [
        pair vpn vpn (* inverted when the first is larger *);
        map (fun v -> (v, v)) vpn;
        return (0, max_int);
        map (fun v -> (v, v + 8)) vpn;
      ]
  in
  let prot =
    oneofl Pmap.Prot.[ none; read; rw; rx; rwx; { r = false; w = true; x = false } ]
  in
  let m = int_range 0 1 and frame = int_range 0 7 in
  frequency
    [
      (6, map (fun ((m, v), (f, pr, w)) -> Enter (m, v, f, pr, w))
           (pair (pair m vpn) (triple frame prot bool)));
      (3, map (fun ((m, v), (pr, w)) -> Enter_same (m, v, pr, w))
           (pair (pair m vpn) (pair prot bool)));
      (2, map (fun (m, v) -> Remove_one (m, v)) (pair m vpn));
      (2, map (fun (m, (lo, hi)) -> Remove_range (m, lo, hi)) (pair m range));
      (2, map (fun (m, ((lo, hi), pr)) -> Protect_range (m, lo, hi, pr))
           (pair m (pair range prot)));
      (2, map (fun (m, ((lo, hi), pr)) -> Restrict_range (m, lo, hi, pr))
           (pair m (pair range prot)));
      (1, map (fun f -> Page_remove_all f) frame);
      (1, map (fun f -> Page_remove_unwired f) frame);
      (1, map (fun (f, pr) -> Page_protect_all (f, pr)) (pair frame prot));
      (1, map (fun m -> Destroy m) m);
    ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 80) gen_op)

let prop_differential =
  QCheck.Test.make ~name:"matches a reference model" ~count:300 arb_ops
    (fun ops ->
      let clock = Sim.Simclock.create () in
      let stats = Sim.Stats.create () in
      let costs =
        { Sim.Cost_model.zero with pmap_enter = 1.0; pmap_remove = 2.0; pmap_protect = 4.0 }
      in
      let pm = Physmem.create ~page_size:256 ~npages:32 ~clock ~costs ~stats () in
      let ctx = Pmap.create_ctx ~clock ~costs ~stats () in
      let maps = [| Pmap.create ctx; Pmap.create ctx |] in
      let frames = Array.init 8 (fun _ -> page pm) in
      (* The model: per map, vpn -> (frame, prot, wired); per frame, its
         (map, vpn) list, newest first; the three counters; the clock. *)
      let tables = [| Vmap.empty; Vmap.empty |] in
      let pv = Array.make 8 [] in
      let enters = ref 0 and removes = ref 0 and protects = ref 0 in
      let now = ref 0 in
      let clock0 = Sim.Simclock.now clock in
      let counter c = Sim.Stats.get stats c in
      let c0 = Sim.Stats.(counter pmap_enters, counter pmap_removes, counter pmap_protects) in
      let m_remove m v =
        match Vmap.find_opt v tables.(m) with
        | None -> ()
        | Some (f, _, _) ->
            tables.(m) <- Vmap.remove v tables.(m);
            let rec drop = function
              | [] -> []
              | (m', v') :: rest when m' = m && v' = v -> rest
              | x :: rest -> x :: drop rest
            in
            pv.(f) <- drop pv.(f);
            incr removes;
            now := !now + 2
      in
      let m_protect m v prot' =
        match Vmap.find_opt v tables.(m) with
        | None -> ()
        | Some (f, pr, w) ->
            tables.(m) <- Vmap.add v (f, prot' pr, w) tables.(m);
            incr protects;
            now := !now + 4
      in
      let in_range m lo hi =
        Vmap.fold (fun v _ acc -> if lo <= v && v < hi then v :: acc else acc)
          tables.(m) []
      in
      let m_enter m v f pr w =
        (match Vmap.find_opt v tables.(m) with
        | Some (f', _, _) when f' <> f -> m_remove m v
        | _ -> ());
        if not (Vmap.mem v tables.(m)) then pv.(f) <- (m, v) :: pv.(f);
        tables.(m) <- Vmap.add v (f, pr, w) tables.(m);
        incr enters;
        now := !now + 1
      in
      let apply = function
        | Enter (m, v, f, pr, w) ->
            Pmap.enter maps.(m) ~vpn:v ~page:frames.(f) ~prot:pr ~wired:w;
            m_enter m v f pr w
        | Enter_same (m, v, pr, w) ->
            let f =
              match Vmap.find_opt v tables.(m) with Some (f, _, _) -> f | None -> 0
            in
            Pmap.enter maps.(m) ~vpn:v ~page:frames.(f) ~prot:pr ~wired:w;
            m_enter m v f pr w
        | Remove_one (m, v) ->
            Pmap.remove_one maps.(m) ~vpn:v;
            m_remove m v
        | Remove_range (m, lo, hi) ->
            Pmap.remove_range maps.(m) ~lo ~hi;
            List.iter (m_remove m) (in_range m lo hi)
        | Protect_range (m, lo, hi, pr) ->
            Pmap.protect_range maps.(m) ~lo ~hi ~prot:pr;
            if Pmap.Prot.equal pr Pmap.Prot.none then
              List.iter (m_remove m) (in_range m lo hi)
            else List.iter (fun v -> m_protect m v (fun _ -> pr)) (in_range m lo hi)
        | Restrict_range (m, lo, hi, pr) ->
            Pmap.restrict_range maps.(m) ~lo ~hi ~prot:pr;
            List.iter
              (fun v -> m_protect m v (fun old -> Pmap.Prot.intersect old pr))
              (in_range m lo hi)
        | Page_remove_all f ->
            Pmap.page_remove_all ctx frames.(f);
            List.iter (fun (m, v) -> m_remove m v) pv.(f)
        | Page_remove_unwired f ->
            Pmap.page_remove_unwired ctx frames.(f);
            List.iter
              (fun (m, v) ->
                match Vmap.find_opt v tables.(m) with
                | Some (_, _, false) -> m_remove m v
                | Some _ | None -> ())
              pv.(f)
        | Page_protect_all (f, pr) ->
            Pmap.page_protect_all ctx frames.(f) ~prot:pr;
            List.iter
              (fun (m, v) -> m_protect m v (fun old -> Pmap.Prot.intersect old pr))
              pv.(f)
        | Destroy m ->
            Pmap.destroy maps.(m);
            List.iter (m_remove m) (in_range m 0 max_int)
      in
      let index_of_map pmap =
        if pmap == maps.(0) then 0 else if pmap == maps.(1) then 1 else -1
      in
      let index_of_frame (p : Physmem.Page.t) =
        let rec go i = if frames.(i) == p then i else go (i + 1) in
        go 0
      in
      let agrees () =
        Array.for_all Fun.id
          (Array.mapi
             (fun m pmap ->
               List.map
                 (fun (v, (pte : Pmap.pte)) ->
                   (v, (index_of_frame pte.page, pte.prot, pte.wired)))
                 (Pmap.translations pmap)
               = Vmap.bindings tables.(m)
               && Pmap.resident_count pmap = Vmap.cardinal tables.(m))
             maps)
        && Array.for_all Fun.id
             (Array.mapi
                (fun f p ->
                  List.map
                    (fun (pmap, v) -> (index_of_map pmap, v))
                    (Pmap.mappings_of_page ctx p)
                  = pv.(f))
                frames)
        && Sim.Stats.(counter pmap_enters, counter pmap_removes, counter pmap_protects)
           = (let e, r, p = c0 in (e + !enters, r + !removes, p + !protects))
        && Sim.Simclock.now clock -. clock0 = float_of_int !now
      in
      let lookups_agree () =
        List.for_all
          (fun v ->
            Array.for_all Fun.id
              (Array.mapi
                 (fun m pmap ->
                   match (Pmap.lookup pmap ~vpn:v, Vmap.find_opt v tables.(m)) with
                   | None, None -> true
                   | Some pte, Some (f, pr, w) ->
                       pte.Pmap.page == frames.(f)
                       && Pmap.Prot.equal pte.Pmap.prot pr
                       && pte.Pmap.wired = w
                   | Some _, None | None, Some _ -> false)
                 maps))
          (List.init 1201 Fun.id @ [ -1; max_int ])
      in
      List.for_all
        (fun op ->
          apply op;
          agrees ())
        ops
      && lookups_agree ())

(* The audit walk's merge finds, for every translation, the entry a linear
   search over the start-sorted entry list would (overlaps included). *)
let prop_walk_is_search =
  QCheck.Test.make ~name:"audit walk matches linear search" ~count:300
    QCheck.(
      pair
        (small_list (pair (int_range 0 1100) (int_range 0 40)))
        (small_list (int_range 0 1100)))
    (fun (spans, vpns) ->
      let pm, ctx = mk () in
      let map = Pmap.create ctx in
      let p = page pm in
      List.iter (fun v -> Pmap.enter map ~vpn:v ~page:p ~prot:Pmap.Prot.rw ~wired:false) vpns;
      let entries =
        List.sort compare (List.map (fun (s, len) -> (s, s + len)) spans)
      in
      let walked = ref [] in
      Check.walk_translations ~spage:fst ~epage:snd entries map (fun v _ e ->
          walked := (v, e) :: !walked);
      List.rev !walked
      = List.map
          (fun (v, _) ->
            (v, List.find_opt (fun (s, e) -> s <= v && v < e) entries))
          (Pmap.translations map))

let test_negative_vpn () =
  let pm, ctx = mk () in
  let map = Pmap.create ctx in
  Alcotest.check_raises "negative vpn" (Invalid_argument "Pmap.enter: negative vpn")
    (fun () -> Pmap.enter map ~vpn:(-1) ~page:(page pm) ~prot:Pmap.Prot.rw ~wired:false)

let () =
  Alcotest.run "pmap"
    [
      ("prot", [ Alcotest.test_case "algebra" `Quick test_prot_algebra ]);
      ( "translations",
        [
          Alcotest.test_case "enter/lookup/remove" `Quick test_enter_lookup_remove;
          Alcotest.test_case "replace" `Quick test_replace_translation;
          Alcotest.test_case "range ops" `Quick test_range_ops;
          Alcotest.test_case "destroy" `Quick test_destroy;
        ] );
      ( "pv",
        [
          Alcotest.test_case "page-wide ops" `Quick test_page_wide_ops;
          QCheck_alcotest.to_alcotest prop_pv_consistent;
        ] );
      ( "model",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |])
            prop_differential;
          Alcotest.test_case "negative vpn" `Quick test_negative_vpn;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |])
            prop_walk_is_search;
        ] );
      ( "refmod",
        [ Alcotest.test_case "mark access" `Quick test_mark_access ] );
    ]
