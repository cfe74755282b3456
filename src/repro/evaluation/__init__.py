"""Evaluation framework: metrics, ground truth answers, runners, reporting.

Turns the raw query answers of the search methods into the quantities the
paper reports — precision, recall, F1 (Figures 10–21, 31–42), wall-clock
query time (Figures 7–9), and offline costs (Tables IV–V) — and formats them
as text tables/series for the benchmark harness.
"""
