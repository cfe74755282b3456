"""Statistics substrate: Gaussian mixtures, normal distributions, sampling.

These are the building blocks of the offline GBD-prior estimation of
Section V-B: sample graph pairs, fit a Gaussian Mixture Model to their GBDs
with EM, and read off discrete probabilities with a continuity correction.
"""
