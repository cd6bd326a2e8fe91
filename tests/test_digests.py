"""The answer gates: the digests `scripts/search_digest.py`,
`scripts/cert_digest.py` and `scripts/replay_digest.py` print, pinned
through the functions the scripts print them from.  A change that keeps
every answer leaves them as they are; a digest that changes on purpose
is edited here, with the reason."""

def test_search_digest(load_script):
    """Every answer, every graph and every search's `stats` (timings
    dropped) of the exact search on the 481 specs: the 91 `search-exact`
    slots in all their presentations and 300 seeded random specs.  A
    faster search may lower the node totals (complement symmetry at the
    root lowered the search nodes to 5,839); one that opens fewer nodes
    also moves `stats-sha256`, which is then re-pinned here with the
    reason.  Splitting each node's orbits from its parent's and keeping
    the greedy seed's degrees as counters left it unmoved."""
    out = load_script("scripts/search_digest.py").digest()
    assert out["specs"] == 481
    assert out["sha256"] == "62a2c143c03d08a8cca03e13d9ef8da8ad103a74719bae96ce3b9f689b8dc717"
    assert out["graph-sha256"] == "195a23f4bf934dd5134711be370f7511493b18b42d2ab316f88af836b91bf9ba"
    assert out["stats-sha256"] == "8632cde4c23315c323f5c8561f9e18f9e23364cfea2e01801d81d05381039234"
    assert out["search_nodes"] <= 5839
    assert out["restore_nodes"] <= 1712


def test_bound_table_digest_at_n_24(load_script):
    """Every certificate the bound engine emits on the 5,377 `bound-table`
    keys at n = 24, a slice of `cert_digest.py`'s specs, and the one R22's
    checker gives on each modular difference, Hamming and intersecting key
    with its default polynomials, which wherever R22 fires is
    `best_bound`'s R22.  `sha256` moved from `e37ab1d1…` when the lifted
    and uniform readings came to run only the rules that can come first
    in them: their portfolios list fewer certificates, and `best-sha256`
    did not move.  The portfolios' calls to the functions `cert_digest.py`
    counts are pinned too, none to the four not named."""
    cert = load_script("scripts/cert_digest.py")
    specs = [
        cert.make_spec(kind, 24, q, L, r)
        for stratum in cert.table_strata()
        for kind, q, L, r in stratum
    ]
    with cert.count_calls() as calls:
        digests = cert.portfolio_digests(specs)
    assert digests == (
        5377,
        "f715ddfc7d9ef93260f5b5eae14f8fe54d026ca287c8f6da1df40d3fdc530728",
        "6cdc30bbbddd0a2a958571f26a6c140a7681c5b8107eb78a2eb489e3114f0a78",
    )
    assert cert.seppoly_digest(specs) == "d285f4f8b6140cab19502671002f9dbbe21581eeac2e1cba5d5a63f615914263"
    assert calls == {"padic._vp_int": 19539, "padic._lucas_nondivisible": 841, "closure.q_closure": 5670}


def test_large_q_digests(load_script):
    """Every portfolio and checker certificate, or the refusal, of the
    large-q stratum at q <= 3125, above 2^22 and at q = 65536, n = 30: the
    intersecting choice read from class minima, the table's limit and the
    rows above it.  Its q = 2^22 specs and the rest of its q = 65536 specs
    take tens of seconds and are run by hand.  The portfolio digest moved
    from `7ec2f09c…` when the uniform reading came to run only R16, R17
    and R19 and to list no residues: its rows above 2^22 now answer by
    R19, where they were refused.  The checker digest was
    taken on the checker's former route, `separates` on every candidate
    (about 35 s per intersecting spec at q = 65536), and did not move when
    the checker came to read g_L's class minima.  It moved from
    `b46fd377…` when the checker came to refuse a kind whose modular
    rules hold no R22 before reading L: its 12 intersecting-uniform rows
    answer "bound_from_seppoly does not apply to kind
    intersecting-uniform" where they answered "empty L is rejected", and
    every other row is unchanged."""
    cert = load_script("scripts/cert_digest.py")
    entries = [
        (kind, n, q, L, r)
        for kind, n, q, L, r in cert.large_q_specs()
        if q <= 3125 or q > 1 << 22 or (q == 65536 and n == 30)
    ]
    assert cert.large_q_digests(entries) == (
        110,
        "a11cf9d0b7f0bfa29b16cf3a7ea884b21c365f6bff78e150380613afba2bcc67",
        "190d8c06e6e29424b9ae9ea17640c8ac30fdfa4e51f3612f0c5fd2ba6ac8c87a",
    )


def test_replay_digest_without_the_14_layer(load_script):
    """Every `check`, `push` and `verify --json` document of the seed-11
    `proof-replay` inputs, every proof system `verify` builds for them and
    every arithmetic document of the fixed grid; the four documents of the
    6-layer of [14] are left out, so that a failure here points at the
    workload's own inputs."""
    out = load_script("scripts/replay_digest.py").digest([11], layer_14_6=False)
    assert out == {
        "documents": 59,
        "sha256": "0d09fc2660d350d06ab12123e2bbe34b05b2d34623579044d8c40aa8ac807fdd",
        "arith-sha256": "edba1e7359eb525d4323ac3532ba58cac93b74562314a014cba54c2815045cb2",
        "systems-sha256": "e5364aa184ca64a74296eba2af284ef4604175ff08ebe1e1f9ef3da0de9c4fbf",
    }


def test_replay_digest(load_script):
    """The same digests with the four documents of the 6-layer of [14]:
    its antichain and q = 8 difference-Sperner checks, its push to s = 7
    and its sym `verify` with s = 6, a 5,475-row exact rank."""
    out = load_script("scripts/replay_digest.py").digest([11])
    assert out == {
        "documents": 63,
        "sha256": "73c38a2961a21218140f9f16ea5fee5e2703358d3a1162dc96270756c4a57925",
        "arith-sha256": "edba1e7359eb525d4323ac3532ba58cac93b74562314a014cba54c2815045cb2",
        "systems-sha256": "68cf44e5466a086e731b8e9c83741d211b62777f462bab72561c827eba905083",
    }
