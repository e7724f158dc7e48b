module Point = Manet_geom.Point
module Rng = Manet_rng.Rng

let pt x y = Point.make ~x ~y

let feq = Alcotest.float 1e-9

let test_dist () =
  Alcotest.check feq "3-4-5 triangle" 5. (Point.dist (pt 0. 0.) (pt 3. 4.));
  Alcotest.check feq "dist_sq" 25. (Point.dist_sq (pt 0. 0.) (pt 3. 4.));
  Alcotest.check feq "self distance" 0. (Point.dist (pt 1. 2.) (pt 1. 2.));
  Alcotest.check feq "symmetry" (Point.dist (pt 1. 7.) (pt 4. 3.)) (Point.dist (pt 4. 3.) (pt 1. 7.))

let test_dist_toroidal () =
  let d = Point.dist_toroidal ~width:10. ~height:10. in
  (* Points near opposite borders are close on the torus. *)
  Alcotest.check feq "wraps x" 2. (d (pt 1. 5.) (pt 9. 5.));
  Alcotest.check feq "wraps y" 2. (d (pt 5. 1.) (pt 5. 9.));
  Alcotest.check feq "interior matches plain" (Point.dist (pt 2. 2.) (pt 5. 6.))
    (d (pt 2. 2.) (pt 5. 6.));
  Alcotest.check feq "symmetric" (d (pt 1. 1.) (pt 9. 9.)) (d (pt 9. 9.) (pt 1. 1.));
  Alcotest.check feq "self" 0. (d (pt 3. 3.) (pt 3. 3.))

let prop_toroidal_never_longer () =
  let rng = Manet_rng.Rng.create ~seed:77 in
  for _ = 1 to 500 do
    let p () = pt (Manet_rng.Rng.float rng 10.) (Manet_rng.Rng.float rng 10.) in
    let a = p () and b = p () in
    if Point.dist_toroidal ~width:10. ~height:10. a b > Point.dist a b +. 1e-9 then
      Alcotest.failf "toroidal distance exceeded plain distance"
  done

let test_vector_ops () =
  let a = pt 1. 2. and b = pt 3. 5. in
  Alcotest.check feq "add x" 4. (Point.add a b).x;
  Alcotest.check feq "add y" 7. (Point.add a b).y;
  Alcotest.check feq "sub x" 2. (Point.sub b a).x;
  Alcotest.check feq "scale" 10. (Point.scale 2. b).y;
  Alcotest.check feq "norm" 5. (Point.norm (pt 3. 4.))

let test_lerp () =
  let a = pt 0. 0. and b = pt 10. 20. in
  Alcotest.check feq "lerp 0 = a" 0. (Point.lerp a b 0.).x;
  Alcotest.check feq "lerp 1 = b.x" 10. (Point.lerp a b 1.).x;
  Alcotest.check feq "lerp half" 10. (Point.lerp a b 0.5).y

let test_box () =
  Alcotest.(check bool) "inside" true (Point.in_box (pt 5. 5.) ~width:10. ~height:10.);
  Alcotest.(check bool) "boundary counts" true (Point.in_box (pt 10. 0.) ~width:10. ~height:10.);
  Alcotest.(check bool) "outside" false (Point.in_box (pt 10.1 5.) ~width:10. ~height:10.);
  let c = Point.clamp_box (pt (-3.) 12.) ~width:10. ~height:10. in
  Alcotest.check feq "clamp x" 0. c.x;
  Alcotest.check feq "clamp y" 10. c.y

let () =
  Alcotest.run "geom"
    [
      ( "point",
        [
          Alcotest.test_case "distances" `Quick test_dist;
          Alcotest.test_case "toroidal distance" `Quick test_dist_toroidal;
          Alcotest.test_case "toroidal never longer" `Quick prop_toroidal_never_longer;
          Alcotest.test_case "vector ops" `Quick test_vector_ops;
          Alcotest.test_case "lerp" `Quick test_lerp;
          Alcotest.test_case "box" `Quick test_box;
        ] );
    ]
