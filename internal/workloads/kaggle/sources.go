// Package kaggle recreates the paper's motivating Kaggle use case (§2, §7):
// the Home Credit Default Risk competition. It generates nine synthetic
// relational source tables with the competition's join topology and builds
// the eight workloads of Table 1 — five modeled on the real public scripts
// and three custom combinations — as workload DAGs over the ops vocabulary.
//
// The data is synthetic (see DESIGN.md, Substitutions): per-table schemas,
// missing-value patterns, categorical cardinalities, and a learnable TARGET
// signal mirror the real competition closely enough that the
// materialization and reuse algorithms face the same decisions.
package kaggle

import (
	"math"
	"math/rand"

	"repro/internal/data"
	"repro/internal/graph"
)

// Config controls the synthetic data generator.
type Config struct {
	// Scale multiplies all table row counts. Scale 1 generates ~2k
	// applications (fast tests); Scale 10 approaches benchmark size.
	Scale int
	// Seed drives all randomness; equal seeds give identical bytes.
	Seed int64
}

// DefaultConfig is the configuration used by tests and the quickstart.
func DefaultConfig() Config { return Config{Scale: 1, Seed: 42} }

func (c Config) rows(base int) int {
	s := c.Scale
	if s < 1 {
		s = 1
	}
	return base * s
}

// Sources holds the nine raw tables of the competition (8 training tables
// plus the evaluation set, §2).
type Sources struct {
	AppTrain      *data.Frame
	AppTest       *data.Frame
	Bureau        *data.Frame
	BureauBalance *data.Frame
	Previous      *data.Frame
	Installments  *data.Frame
	POSCash       *data.Frame
	CreditCard    *data.Frame
	Submission    *data.Frame
}

// SourceNames lists the canonical dataset names in a fixed order.
var SourceNames = []string{
	"application_train", "application_test", "bureau", "bureau_balance",
	"previous_application", "installments_payments", "POS_CASH_balance",
	"credit_card_balance", "sample_submission",
}

// Frames returns the tables in SourceNames order.
func (s *Sources) Frames() []*data.Frame {
	return []*data.Frame{
		s.AppTrain, s.AppTest, s.Bureau, s.BureauBalance, s.Previous,
		s.Installments, s.POSCash, s.CreditCard, s.Submission,
	}
}

// AddTo registers every source table on a workload DAG and returns the
// source nodes keyed by dataset name.
func (s *Sources) AddTo(w *graph.DAG) map[string]*graph.Node {
	out := make(map[string]*graph.Node, 9)
	for i, f := range s.Frames() {
		out[SourceNames[i]] = w.AddSource(SourceNames[i], &graph.DatasetArtifact{Frame: f})
	}
	return out
}

const anomalousDaysEmployed = 365243 // the competition's famous sentinel

// Generate builds the nine tables deterministically from cfg.
func Generate(cfg Config) *Sources {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nApp := cfg.rows(2000)
	nTest := cfg.rows(400)

	s := &Sources{}
	var trainIDs []int64
	s.AppTrain, trainIDs = genApplications(rng, nApp, 1, true)
	s.AppTest, _ = genApplications(rng, nTest, int64(nApp)+1, false)
	s.Bureau = genBureau(rng, trainIDs)
	s.BureauBalance = genBureauBalance(rng, s.Bureau)
	s.Previous = genPrevious(rng, trainIDs)
	s.Installments = genInstallments(rng, s.Previous)
	s.POSCash = genPOSCash(rng, s.Previous)
	s.CreditCard = genCreditCard(rng, s.Previous)
	s.Submission = genSubmission(s.AppTest)
	return s
}

func pick(rng *rand.Rand, vals []string) string { return vals[rng.Intn(len(vals))] }

func maybeNaN(rng *rand.Rand, v float64, frac float64) float64 {
	if rng.Float64() < frac {
		return math.NaN()
	}
	return v
}

func genApplications(rng *rand.Rand, n int, firstID int64, withTarget bool) (*data.Frame, []int64) {
	ids := make([]int64, n)
	contract := make([]string, n)
	gender := make([]string, n)
	ownCar := make([]string, n)
	education := make([]string, n)
	family := make([]string, n)
	occupation := make([]string, n)
	children := make([]float64, n)
	income := make([]float64, n)
	credit := make([]float64, n)
	annuity := make([]float64, n)
	goods := make([]float64, n)
	daysBirth := make([]float64, n)
	daysEmployed := make([]float64, n)
	ext1 := make([]float64, n)
	ext2 := make([]float64, n)
	ext3 := make([]float64, n)
	region := make([]float64, n)
	target := make([]float64, n)

	eduVals := []string{"Secondary", "Higher", "Incomplete", "Lower"}
	famVals := []string{"Married", "Single", "Separated"}
	occVals := []string{"Laborers", "Core", "Sales", "Managers", "Drivers", "Medicine"}
	for i := 0; i < n; i++ {
		ids[i] = firstID + int64(i)
		contract[i] = pick(rng, []string{"Cash", "Revolving"})
		gender[i] = pick(rng, []string{"M", "F"})
		ownCar[i] = pick(rng, []string{"Y", "N"})
		education[i] = pick(rng, eduVals)
		family[i] = pick(rng, famVals)
		if rng.Float64() < 0.1 {
			occupation[i] = "" // missing occupation, as in the real data
		} else {
			occupation[i] = pick(rng, occVals)
		}
		children[i] = float64(rng.Intn(4))
		income[i] = 25000 + rng.ExpFloat64()*75000
		credit[i] = 45000 + rng.ExpFloat64()*250000
		annuity[i] = maybeNaN(rng, credit[i]/(12+rng.Float64()*48), 0.04)
		goods[i] = maybeNaN(rng, credit[i]*(0.8+rng.Float64()*0.2), 0.03)
		daysBirth[i] = -(20 + rng.Float64()*45) * 365
		if rng.Float64() < 0.18 {
			daysEmployed[i] = anomalousDaysEmployed // pensioner sentinel
		} else {
			daysEmployed[i] = -rng.Float64() * 12000
		}
		e1 := rng.Float64()
		e2 := rng.Float64()
		e3 := rng.Float64()
		ext1[i] = maybeNaN(rng, e1, 0.4)
		ext2[i] = maybeNaN(rng, e2, 0.05)
		ext3[i] = maybeNaN(rng, e3, 0.15)
		region[i] = float64(1 + rng.Intn(3))
		// learnable default signal: low external scores and high
		// credit-to-income drive defaults.
		logit := -2.2 + 2.2*(0.5-e1) + 2.8*(0.5-e2) + 1.8*(0.5-e3) +
			0.25*(credit[i]/income[i]) + 0.4*(children[i]-1.5)/3 + rng.NormFloat64()*0.4
		if rng.Float64() < 1/(1+math.Exp(-logit)) {
			target[i] = 1
		}
	}
	name := "application_train"
	if !withTarget {
		name = "application_test"
	}
	src := func(col string) string { return data.SourceID(name, col) }
	cols := []*data.Column{
		{ID: src("SK_ID_CURR"), Name: "SK_ID_CURR", Type: data.Int64, Ints: ids},
	}
	if withTarget {
		cols = append(cols, &data.Column{ID: src("TARGET"), Name: "TARGET", Type: data.Float64, Floats: target})
	}
	cols = append(cols,
		&data.Column{ID: src("NAME_CONTRACT_TYPE"), Name: "NAME_CONTRACT_TYPE", Type: data.String, Strings: contract},
		&data.Column{ID: src("CODE_GENDER"), Name: "CODE_GENDER", Type: data.String, Strings: gender},
		&data.Column{ID: src("FLAG_OWN_CAR"), Name: "FLAG_OWN_CAR", Type: data.String, Strings: ownCar},
		&data.Column{ID: src("NAME_EDUCATION_TYPE"), Name: "NAME_EDUCATION_TYPE", Type: data.String, Strings: education},
		&data.Column{ID: src("NAME_FAMILY_STATUS"), Name: "NAME_FAMILY_STATUS", Type: data.String, Strings: family},
		&data.Column{ID: src("OCCUPATION_TYPE"), Name: "OCCUPATION_TYPE", Type: data.String, Strings: occupation},
		&data.Column{ID: src("CNT_CHILDREN"), Name: "CNT_CHILDREN", Type: data.Float64, Floats: children},
		&data.Column{ID: src("AMT_INCOME_TOTAL"), Name: "AMT_INCOME_TOTAL", Type: data.Float64, Floats: income},
		&data.Column{ID: src("AMT_CREDIT"), Name: "AMT_CREDIT", Type: data.Float64, Floats: credit},
		&data.Column{ID: src("AMT_ANNUITY"), Name: "AMT_ANNUITY", Type: data.Float64, Floats: annuity},
		&data.Column{ID: src("AMT_GOODS_PRICE"), Name: "AMT_GOODS_PRICE", Type: data.Float64, Floats: goods},
		&data.Column{ID: src("DAYS_BIRTH"), Name: "DAYS_BIRTH", Type: data.Float64, Floats: daysBirth},
		&data.Column{ID: src("DAYS_EMPLOYED"), Name: "DAYS_EMPLOYED", Type: data.Float64, Floats: daysEmployed},
		&data.Column{ID: src("EXT_SOURCE_1"), Name: "EXT_SOURCE_1", Type: data.Float64, Floats: ext1},
		&data.Column{ID: src("EXT_SOURCE_2"), Name: "EXT_SOURCE_2", Type: data.Float64, Floats: ext2},
		&data.Column{ID: src("EXT_SOURCE_3"), Name: "EXT_SOURCE_3", Type: data.Float64, Floats: ext3},
		&data.Column{ID: src("REGION_RATING_CLIENT"), Name: "REGION_RATING_CLIENT", Type: data.Float64, Floats: region},
	)
	return data.MustNewFrame(cols...), ids
}

func genBureau(rng *rand.Rand, clientIDs []int64) *data.Frame {
	var cur, bid []int64
	var daysCredit, amtSum, amtDebt, overdue []float64
	var active []string
	next := int64(5000000)
	for _, id := range clientIDs {
		for k := 0; k < rng.Intn(8); k++ {
			cur = append(cur, id)
			bid = append(bid, next)
			next++
			daysCredit = append(daysCredit, -rng.Float64()*3000)
			amtSum = append(amtSum, rng.ExpFloat64()*100000)
			amtDebt = append(amtDebt, maybeNaN(rng, rng.ExpFloat64()*40000, 0.1))
			overdue = append(overdue, math.Max(0, rng.NormFloat64()*100))
			active = append(active, pick(rng, []string{"Active", "Closed", "Sold"}))
		}
	}
	src := func(col string) string { return data.SourceID("bureau", col) }
	return data.MustNewFrame(
		&data.Column{ID: src("SK_ID_CURR"), Name: "SK_ID_CURR", Type: data.Int64, Ints: cur},
		&data.Column{ID: src("SK_ID_BUREAU"), Name: "SK_ID_BUREAU", Type: data.Int64, Ints: bid},
		&data.Column{ID: src("DAYS_CREDIT"), Name: "DAYS_CREDIT", Type: data.Float64, Floats: daysCredit},
		&data.Column{ID: src("AMT_CREDIT_SUM"), Name: "AMT_CREDIT_SUM", Type: data.Float64, Floats: amtSum},
		&data.Column{ID: src("AMT_CREDIT_SUM_DEBT"), Name: "AMT_CREDIT_SUM_DEBT", Type: data.Float64, Floats: amtDebt},
		&data.Column{ID: src("AMT_CREDIT_SUM_OVERDUE"), Name: "AMT_CREDIT_SUM_OVERDUE", Type: data.Float64, Floats: overdue},
		&data.Column{ID: src("CREDIT_ACTIVE"), Name: "CREDIT_ACTIVE", Type: data.String, Strings: active},
	)
}

func genBureauBalance(rng *rand.Rand, bureau *data.Frame) *data.Frame {
	bids := bureau.Column("SK_ID_BUREAU").Ints
	var bid []int64
	var months, dpd []float64
	var status []string
	for _, id := range bids {
		for m := 0; m < rng.Intn(32); m++ {
			bid = append(bid, id)
			months = append(months, -float64(m))
			dpd = append(dpd, math.Max(0, rng.NormFloat64()*5))
			status = append(status, pick(rng, []string{"C", "0", "1", "X"}))
		}
	}
	src := func(col string) string { return data.SourceID("bureau_balance", col) }
	return data.MustNewFrame(
		&data.Column{ID: src("SK_ID_BUREAU"), Name: "SK_ID_BUREAU", Type: data.Int64, Ints: bid},
		&data.Column{ID: src("MONTHS_BALANCE"), Name: "MONTHS_BALANCE", Type: data.Float64, Floats: months},
		&data.Column{ID: src("DPD"), Name: "DPD", Type: data.Float64, Floats: dpd},
		&data.Column{ID: src("STATUS"), Name: "STATUS", Type: data.String, Strings: status},
	)
}

func genPrevious(rng *rand.Rand, clientIDs []int64) *data.Frame {
	var cur, prev []int64
	var amtApp, amtCredit, downPayment []float64
	var status []string
	next := int64(1000000)
	for _, id := range clientIDs {
		for k := 0; k < rng.Intn(6); k++ {
			cur = append(cur, id)
			prev = append(prev, next)
			next++
			a := rng.ExpFloat64() * 80000
			amtApp = append(amtApp, a)
			amtCredit = append(amtCredit, a*(0.7+rng.Float64()*0.4))
			downPayment = append(downPayment, maybeNaN(rng, a*rng.Float64()*0.3, 0.2))
			status = append(status, pick(rng, []string{"Approved", "Refused", "Canceled"}))
		}
	}
	src := func(col string) string { return data.SourceID("previous_application", col) }
	return data.MustNewFrame(
		&data.Column{ID: src("SK_ID_CURR"), Name: "SK_ID_CURR", Type: data.Int64, Ints: cur},
		&data.Column{ID: src("SK_ID_PREV"), Name: "SK_ID_PREV", Type: data.Int64, Ints: prev},
		&data.Column{ID: src("AMT_APPLICATION"), Name: "AMT_APPLICATION", Type: data.Float64, Floats: amtApp},
		&data.Column{ID: src("AMT_CREDIT"), Name: "AMT_CREDIT", Type: data.Float64, Floats: amtCredit},
		&data.Column{ID: src("AMT_DOWN_PAYMENT"), Name: "AMT_DOWN_PAYMENT", Type: data.Float64, Floats: downPayment},
		&data.Column{ID: src("NAME_CONTRACT_STATUS"), Name: "NAME_CONTRACT_STATUS", Type: data.String, Strings: status},
	)
}

func genInstallments(rng *rand.Rand, previous *data.Frame) *data.Frame {
	prevs := previous.Column("SK_ID_PREV").Ints
	var prev []int64
	var num, amtInst, amtPay, daysLate []float64
	for _, id := range prevs {
		for k := 0; k < rng.Intn(16); k++ {
			prev = append(prev, id)
			num = append(num, float64(k+1))
			inst := rng.ExpFloat64() * 5000
			amtInst = append(amtInst, inst)
			amtPay = append(amtPay, inst*(0.8+rng.Float64()*0.4))
			daysLate = append(daysLate, rng.NormFloat64()*10)
		}
	}
	src := func(col string) string { return data.SourceID("installments_payments", col) }
	return data.MustNewFrame(
		&data.Column{ID: src("SK_ID_PREV"), Name: "SK_ID_PREV", Type: data.Int64, Ints: prev},
		&data.Column{ID: src("NUM_INSTALMENT"), Name: "NUM_INSTALMENT", Type: data.Float64, Floats: num},
		&data.Column{ID: src("AMT_INSTALMENT"), Name: "AMT_INSTALMENT", Type: data.Float64, Floats: amtInst},
		&data.Column{ID: src("AMT_PAYMENT"), Name: "AMT_PAYMENT", Type: data.Float64, Floats: amtPay},
		&data.Column{ID: src("DAYS_LATE"), Name: "DAYS_LATE", Type: data.Float64, Floats: daysLate},
	)
}

func genPOSCash(rng *rand.Rand, previous *data.Frame) *data.Frame {
	prevs := previous.Column("SK_ID_PREV").Ints
	var prev []int64
	var months, cnt, dpd []float64
	for _, id := range prevs {
		for m := 0; m < rng.Intn(8); m++ {
			prev = append(prev, id)
			months = append(months, -float64(m))
			cnt = append(cnt, float64(6+rng.Intn(42)))
			dpd = append(dpd, math.Max(0, rng.NormFloat64()*3))
		}
	}
	src := func(col string) string { return data.SourceID("POS_CASH_balance", col) }
	return data.MustNewFrame(
		&data.Column{ID: src("SK_ID_PREV"), Name: "SK_ID_PREV", Type: data.Int64, Ints: prev},
		&data.Column{ID: src("MONTHS_BALANCE"), Name: "MONTHS_BALANCE", Type: data.Float64, Floats: months},
		&data.Column{ID: src("CNT_INSTALMENT"), Name: "CNT_INSTALMENT", Type: data.Float64, Floats: cnt},
		&data.Column{ID: src("SK_DPD"), Name: "SK_DPD", Type: data.Float64, Floats: dpd},
	)
}

func genCreditCard(rng *rand.Rand, previous *data.Frame) *data.Frame {
	prevs := previous.Column("SK_ID_PREV").Ints
	var prev []int64
	var months, balance, limit, drawings []float64
	for _, id := range prevs {
		for m := 0; m < rng.Intn(6); m++ {
			prev = append(prev, id)
			months = append(months, -float64(m))
			l := 10000 + rng.ExpFloat64()*40000
			limit = append(limit, l)
			balance = append(balance, l*rng.Float64())
			drawings = append(drawings, maybeNaN(rng, rng.ExpFloat64()*2000, 0.15))
		}
	}
	src := func(col string) string { return data.SourceID("credit_card_balance", col) }
	return data.MustNewFrame(
		&data.Column{ID: src("SK_ID_PREV"), Name: "SK_ID_PREV", Type: data.Int64, Ints: prev},
		&data.Column{ID: src("MONTHS_BALANCE"), Name: "MONTHS_BALANCE", Type: data.Float64, Floats: months},
		&data.Column{ID: src("AMT_BALANCE"), Name: "AMT_BALANCE", Type: data.Float64, Floats: balance},
		&data.Column{ID: src("AMT_CREDIT_LIMIT_ACTUAL"), Name: "AMT_CREDIT_LIMIT_ACTUAL", Type: data.Float64, Floats: limit},
		&data.Column{ID: src("AMT_DRAWINGS"), Name: "AMT_DRAWINGS", Type: data.Float64, Floats: drawings},
	)
}

func genSubmission(appTest *data.Frame) *data.Frame {
	ids := appTest.Column("SK_ID_CURR").Ints
	target := make([]float64, len(ids))
	for i := range target {
		target[i] = 0.5
	}
	src := func(col string) string { return data.SourceID("sample_submission", col) }
	return data.MustNewFrame(
		&data.Column{ID: src("SK_ID_CURR"), Name: "SK_ID_CURR", Type: data.Int64, Ints: append([]int64(nil), ids...)},
		&data.Column{ID: src("TARGET"), Name: "TARGET", Type: data.Float64, Floats: target},
	)
}
