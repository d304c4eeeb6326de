"""Test-side reference implementations that the package code is checked against."""
