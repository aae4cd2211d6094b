"""Joint-distribution validation of the full MCMC scan for every kernel
configuration: all monitored parameter z-scores must stay below 4."""
import hashlib

# SHA-256 of every config's z-scores, one line f"{label}/{key}={z!r}\n"
# each, in run order. A change to the sampler's law or to its use of the
# random stream changes it; such a change must update the value here and
# say so, as with the desk-grid fingerprint.
GEWEKE_Z_SHA256 = "63b5ad1d23820f35e9a0119895942ff685d8cea14ba39df39087b4f421ab6b76"


def test_geweke_all_configs(geweke_results):
    for result in geweke_results:
        assert result.max_abs_z < 4.0, (
            f"{result.label}: joint-distribution test failed, z-scores {result.z_scores}"
        )


def test_geweke_covers_both_kinds(geweke_results):
    labels = " ".join(r.label for r in geweke_results)
    assert "linear" in labels and "logistic" in labels


def test_geweke_z_scores_are_pinned(geweke_results):
    """A kernel-neutral change leaves every z-score unchanged, bit for bit."""
    digest = hashlib.sha256()
    for result in geweke_results:
        for key, z in result.z_scores.items():
            digest.update(f"{result.label}/{key}={z!r}\n".encode())
    assert digest.hexdigest() == GEWEKE_Z_SHA256
