"""The repository benchmark: three serving / cold-kernel workloads measured
end to end and layer by layer.  Run ``python3 perfbench/run.py --help``;
``perfbench/README.md`` explains the workloads and metrics."""
