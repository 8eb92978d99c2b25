"""Sharing-service simulation: Figure 3 end to end, with costs.

Runs the service on a fault-free ``TranscodeFarm``: uploads a small
catalog, serves power-law-distributed views, watches the hot videos earn
their high-effort Popular re-transcode, and prints the
storage/network/compute cost split -- then re-runs the same traffic with
a GPU delivery backend to show the compute-vs-egress shift of
Section 5.3.

    python examples/popular_pipeline.py
"""

from repro.corpus.popularity import PopularityModel
from repro.pipeline import ServiceConfig, TranscodeFarm
from repro.video.synthesis import synthesize

CONTENT = ["screencast", "animation", "natural", "gaming", "sports", "slideshow"]


def build_service(delivery: str) -> TranscodeFarm:
    service = TranscodeFarm(
        delivery_backend=delivery,
        popular_backend="x265",
        service_config=ServiceConfig(popular_threshold_views=120),
    )
    for i, content in enumerate(CONTENT):
        clip = synthesize(
            content, 64, 48, 8, 12.0, seed=50 + i, name=f"{content}-{i}"
        ).with_nominal_resolution(1280, 720)
        service.upload(clip)
    return service


def run(delivery: str) -> None:
    service = build_service(delivery)
    promoted = service.simulate_views(
        total_views=1500,
        popularity=PopularityModel(alpha=1.1, cutoff_rank=50),
        seed=3,
    )
    print(f"delivery backend: {delivery}")
    print(f"  promoted to Popular: {promoted or 'none'}")
    for name, dollars in service.costs.breakdown().items():
        print(f"  {name:<8} ${dollars:.6f}")
    print()


def main() -> None:
    print("Views follow a power law with exponential cutoff: a few videos")
    print("absorb most watch time and earn the high-effort re-transcode.\n")
    run("x264:medium")
    run("qsv")
    print("The GPU pipeline spends less on compute and more on egress --")
    print("the balance every provider weighs (Section 5.3).")


if __name__ == "__main__":
    main()
