from setuptools import find_packages, setup

setup(
    name="repro-gyo",
    version="1.1.0",
    description=(
        "Reproduction of Goodman, Shmueli & Tay: GYO reductions, canonical "
        "connections, tree and cyclic schemas, and tree projections"
    ),
    long_description=(
        "A library and CLI for acyclic-database theory: GYO reductions, qual "
        "trees, canonical connections, lossless joins, treefication, tree "
        "projections, and Yannakakis-style query evaluation with "
        "plan-once/execute-many prepared queries (see docs/api.md)."
    ),
    long_description_content_type="text/plain",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Database",
        "Topic :: Scientific/Engineering",
    ],
)
