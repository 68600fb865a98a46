type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { data = Array.make capacity 0; len = 0 }

let make n x = { data = Array.make (max n 1) x; len = n }
let length v = v.len
let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec_int: index %d out of bounds [0,%d)" i v.len)

let get v i =
  check v i;
  Array.unsafe_get v.data i

let set v i x =
  check v i;
  Array.unsafe_set v.data i x

let grow v needed =
  let cap = Array.length v.data in
  if needed > cap then begin
    let cap' = max needed (cap * 2) in
    let data' = Array.make cap' 0 in
    Array.blit v.data 0 data' 0 v.len;
    v.data <- data'
  end

let push v x =
  grow v (v.len + 1);
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec_int.pop: empty";
  v.len <- v.len - 1;
  Array.unsafe_get v.data v.len

let top v =
  if v.len = 0 then invalid_arg "Vec_int.top: empty";
  Array.unsafe_get v.data (v.len - 1)

let clear v = v.len <- 0

let resize v n x =
  if n < 0 then invalid_arg "Vec_int.resize: negative length";
  grow v n;
  if n > v.len then Array.fill v.data v.len (n - v.len) x;
  v.len <- n

let remove_unordered v i =
  check v i;
  v.len <- v.len - 1;
  Array.unsafe_set v.data i (Array.unsafe_get v.data v.len)

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let exists p v =
  let rec go i = i < v.len && (p (Array.unsafe_get v.data i) || go (i + 1)) in
  go 0

let to_list v = List.rev (fold (fun acc x -> x :: acc) [] v)

let of_list xs =
  let v = create ~capacity:(max 1 (List.length xs)) () in
  List.iter (push v) xs;
  v

let to_array v = Array.sub v.data 0 v.len
let of_array a = { data = (if Array.length a = 0 then Array.make 1 0 else Array.copy a); len = Array.length a }

let blit_push dst src =
  grow dst (dst.len + src.len);
  Array.blit src.data 0 dst.data dst.len src.len;
  dst.len <- dst.len + src.len

let sort v =
  let a = to_array v in
  Array.sort compare a;
  Array.blit a 0 v.data 0 v.len

let shrink_capacity v =
  if Array.length v.data > max 1 v.len then v.data <- Array.sub v.data 0 (max 1 v.len)

let pp ppf v =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") Format.pp_print_int)
    (to_list v)
