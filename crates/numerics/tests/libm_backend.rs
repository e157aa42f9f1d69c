//! The libm ablation switch of `vexp`. The switch is process-global, so
//! this test runs in a binary of its own: flipped inside the library's
//! unit-test binary, it would let sibling tests that run at the same time
//! (the lane/slice bit-identity checks) see libm partway through.

use icvbe_numerics::vexp::{set_libm_backend, vexp, vexp_lanes, vexp_slice};

#[test]
fn libm_backend_switch_routes_all_forms() {
    let kernel_half = vexp(0.5).to_bits();
    set_libm_backend(true);
    let xs = [0.5, -3.25, 17.0, -40.0];
    let lanes = vexp_lanes(&xs);
    let mut sliced = [0.0; 4];
    vexp_slice(&xs, &mut sliced);
    for (i, &x) in xs.iter().enumerate() {
        assert_eq!(vexp(x).to_bits(), x.exp().to_bits(), "scalar {x}");
        assert_eq!(lanes[i].to_bits(), x.exp().to_bits(), "lane {x}");
        assert_eq!(sliced[i].to_bits(), x.exp().to_bits(), "slice {x}");
    }
    set_libm_backend(false);
    // Switching back restores the in-tree kernel's bits.
    assert_eq!(vexp(0.5).to_bits(), kernel_half);
}
