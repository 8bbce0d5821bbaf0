"""chernslope: exact-arithmetic invariants of cyclic branched covers of
resolved section/fiber arrangements on ruled surfaces."""
