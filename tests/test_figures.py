"""Figure files keep their exact bytes."""

import hashlib

from sqdenom import generate_figures

# sha256 of each file generate_figures writes; any change to the numbers,
# the CSV layout or the SVG drawing code shows up here.
FIGURE_SHA256 = {
    "fig1.svg": "baa520b08ed1bd721643702f2907dd0c6b9219496b52c5a7724a5db4cc4718c4",
    "fig1.csv": "64d869c86633bac97682c2d222eb9a6f8b9a72514f191283ddd6c9691e1d4125",
    "fig2.svg": "8fe6622cc40f6736e1ecb7a3b93dbeb4b6f04d7a8b45785836857d4f150b513b",
    "fig2.csv": "da5b2dfa0bf9bb7a31e75ff7345fecd77bf515c4a632934905c5898daf130f0c",
    "fig3.svg": "ac58b59cbeba30f63f93c55e726cac3c289a9d99c1a0d1ea1d76b842e5f90537",
    "fig3.csv": "c59156bbac89ea4f1068f080e54ad751f5ad8e6dcffd13efcfe66e37185af30f",
    "fig4.svg": "19b6f613400946bb323ace914471ae481473723980428cbcaca068269ccf311d",
    "fig4.csv": "f4ff1a5901759e48ac089ba022283c5d33b1be9b29647848ad358160e067bdd7",
    "fig5.svg": "f8544ebc8c94bde32009f2ca11f042edfd88b1e98581a7c74376a016436fa1ae",
    "fig5.csv": "b54c0586f4fb15ec3ecc8d1f7ac93ca6bc9bded6f19e8e9b353c50a09c41e3a0",
    "fig5_curves.csv": "56b084f4c0977e0dc85b2aa7c61d2399faee7e3486a721aa08b8d64d262b6a14",
    "fig6.svg": "618c2d399d0763f4a36a1b3b34c25f62c06c10a2a36dde8d9b7ed959a1389cbd",
    "fig6.csv": "d26ce55852802900da746966306c034ff57b0a489c0f23615168f93c66a4a7d1",
}


def test_figure_bytes_are_pinned(tmp_path):
    paths = generate_figures(tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == FIGURE_SHA256
