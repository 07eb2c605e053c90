//! Property tests on the domain distribution: for random domains, block
//! shapes and server counts, the decomposition must partition the grid
//! exactly and balance load.

use proptest::prelude::*;
use staging::dist::Distribution;
use staging::geometry::BBox;

fn arb_setup() -> impl Strategy<Value = (BBox, [u64; 3], usize)> {
    ((1u64..80, 1u64..80, 1u64..80), (1u64..40, 1u64..40, 1u64..40), 1usize..12).prop_map(
        |(dims, block, nservers)| {
            (BBox::whole([dims.0, dims.1, dims.2]), [block.0, block.1, block.2], nservers)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every block maps to exactly one server, and the whole-domain query
    /// tiles the domain exactly.
    #[test]
    fn blocks_partition_domain((domain, block, nservers) in arb_setup()) {
        let dist = Distribution::new(domain, block, nservers);
        let pieces = dist.blocks_overlapping(&domain);
        prop_assert_eq!(pieces.len(), dist.nblocks());
        let vol: u64 = pieces.iter().map(|(_, b, _)| b.volume()).sum();
        prop_assert_eq!(vol, domain.volume(), "blocks must tile the domain");
        for (i, (_, a, s)) in pieces.iter().enumerate() {
            prop_assert!(*s < nservers);
            for (_, b, _) in &pieces[i + 1..] {
                prop_assert!(!a.intersects(b), "blocks must be disjoint");
            }
        }
    }

    /// SFC range partitioning balances servers to within one block.
    #[test]
    fn server_load_balanced((domain, block, nservers) in arb_setup()) {
        let dist = Distribution::new(domain, block, nservers);
        let mut counts = vec![0usize; nservers];
        for (_, _, s) in dist.blocks_overlapping(&domain) {
            counts[s] += 1;
        }
        let hi = *counts.iter().max().expect("nonempty");
        let lo = *counts.iter().min().expect("nonempty");
        prop_assert!(hi - lo <= 1, "imbalance {lo}..{hi} with {} blocks", dist.nblocks());
    }

    /// Random sub-queries are tiled exactly by their clipped blocks, and
    /// every clipped piece routes to the block owner.
    #[test]
    fn queries_tile_exactly(
        (domain, block, nservers) in arb_setup(),
        qx in 0u64..60, qy in 0u64..60, qz in 0u64..60,
        wx in 1u64..20, wy in 1u64..20, wz in 1u64..20,
    ) {
        let dist = Distribution::new(domain, block, nservers);
        let lb = [
            qx.min(domain.ub[0]),
            qy.min(domain.ub[1]),
            qz.min(domain.ub[2]),
        ];
        let ub = [
            (lb[0] + wx - 1).min(domain.ub[0]),
            (lb[1] + wy - 1).min(domain.ub[1]),
            (lb[2] + wz - 1).min(domain.ub[2]),
        ];
        let q = BBox::d3(lb, ub);
        let pieces = dist.blocks_overlapping(&q);
        let vol: u64 = pieces.iter().map(|(_, b, _)| b.volume()).sum();
        prop_assert_eq!(vol, q.volume());
        for (coord, clipped, server) in pieces {
            prop_assert!(q.contains(&clipped));
            prop_assert_eq!(server, dist.server_of_block(coord));
        }
    }

    /// Range partitioning leaves no server empty when there are at least as
    /// many blocks as servers.
    #[test]
    fn no_server_is_empty_when_blocks_cover_servers((domain, block, nservers) in arb_setup()) {
        let dist = Distribution::new(domain, block, nservers);
        if dist.nblocks() >= nservers {
            for s in 0..nservers {
                prop_assert!(!dist.blocks_of_server(s).is_empty());
            }
        }
    }
}
