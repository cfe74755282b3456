"""Assignment-problem substrate used by the LSAP-based GED baselines.

Provides a from-scratch O(n³) Hungarian solver for the exact linear sum
assignment problem and the sorted-greedy approximation used by
Greedy-Sort-GED.
"""
